// WorkerPool: a bounded work-stealing thread pool.
//
// The async materialization path (ViewProvider::MaterializeAsync) runs its
// units here rather than on the materialization scheduler: pool tasks are
// coordinators that may *block* on scheduler jobs (batch assembly fans out
// per-video work and waits), so they need their own threads to avoid
// eating the scheduler's workers.
//
// Topology: one deque per worker, each guarded by its own small mutex.
// Submit round-robins pushes across the deques; a worker pops from the
// front of its own deque and, when empty, steals from the back of a
// sibling's — concurrent submit/run traffic on different workers never
// shares a lock. A single pool-wide mutex + condvar handles only sleeping
// and wakeup.
//
// Bounded: at most `max_queued` tasks may be pending; TrySubmit refuses
// beyond that and the caller decides: run inline (a demand unit, an async
// demote, a decode slice) or refuse (the server's request admission).
// Shutdown completes everything already queued.

#ifndef SAND_COMMON_WORKER_POOL_H_
#define SAND_COMMON_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sand {

struct WorkerPoolStats {
  uint64_t submitted = 0;
  uint64_t executed = 0;
  uint64_t stolen = 0;    // tasks run by a worker other than the one queued on
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

  // Queues `task`; false when the pool is at capacity or shut down.
  bool TrySubmit(std::function<void()> task);

  // Blocks until no tasks are queued or running.
  void WaitIdle();

  // Stops accepting work, completes queued tasks, joins the threads.
  void Shutdown();

  WorkerPoolStats stats();
  size_t Pending();

 private:
  struct Slot {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t self);
  // Pops from own front, then steals from siblings' backs. Returns an
  // empty function when nothing is runnable.
  std::function<void()> Grab(size_t self, bool* stolen);

  Options options_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> next_slot_{0};

  // Pool-wide sleep/wake + accounting. `pending_` and `active_` are
  // guarded by mutex_ so wakeups are never lost.
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  size_t pending_ = 0;
  int active_ = 0;
  bool shutdown_ = false;
  WorkerPoolStats stats_;
};

}  // namespace sand

#endif  // SAND_COMMON_WORKER_POOL_H_
