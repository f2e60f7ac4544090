// WorkerPool: a bounded FIFO thread pool, and RunAll, the fork-join on it.
//
// Each use has a pool of its own: SandService's async pool runs the
// compressed tier's demote encodes, its decode pool the GOP slices of one
// view's decode (RunAll), and SandServer's request pool the wire verbs.
// Reads do not go through a pool: they materialize on the reading thread.
//
// Topology: one deque of queued tasks under one mutex. Workers pop from
// its front, so tasks start in submit order; with one worker they also
// finish in it.
//
// Bounded: at most `max_queued` tasks may be queued; TrySubmit refuses
// beyond that and the caller decides: run inline (an async demote, a
// decode slice) or refuse (the server's request admission).
// Shutdown completes everything already queued.

#ifndef SAND_COMMON_WORKER_POOL_H_
#define SAND_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sand {

struct WorkerPoolStats {
  uint64_t submitted = 0;
  uint64_t executed = 0;
  uint64_t rejected = 0;  // TrySubmit refusals (queue at capacity / shutdown)
};

class WorkerPool {
 public:
  struct Options {
    int num_threads = 4;
    size_t max_queued = 64;
  };

  explicit WorkerPool(Options options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Queues `task`; false when the pool is at capacity or shut down. The
  // task runs under the submitter's trace context.
  bool TrySubmit(std::function<void()> task);

  // Blocks until no tasks are queued or running.
  void WaitIdle();

  // Stops accepting work, completes queued tasks, joins the threads.
  void Shutdown();

  WorkerPoolStats stats();
  // Tasks queued and not yet started.
  size_t Pending();

 private:
  void WorkerLoop();

  Options options_;
  std::vector<std::thread> threads_;

  // Guards everything below. `wake_` signals a queued task or shutdown,
  // `idle_` an empty queue with no task running.
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  int active_ = 0;
  bool shutdown_ = false;
  WorkerPoolStats stats_;
};

// Runs fn(0) .. fn(n - 1) and returns once every call has returned. Calls
// 1 .. n - 1 are offered to `pool`; call 0, and every call the pool
// refuses, runs on the calling thread, as does every call when `pool` is
// null, so a saturated pool never holds the caller up. Do not call it from
// a task of `pool` itself: the queued calls could then wait behind workers
// that all wait on them. `fn` must be safe to run concurrently for
// different indices.
void RunAll(WorkerPool* pool, size_t n, const std::function<void(size_t)>& fn);

}  // namespace sand

#endif  // SAND_COMMON_WORKER_POOL_H_
