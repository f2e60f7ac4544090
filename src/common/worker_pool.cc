#include "src/common/worker_pool.h"

#include <utility>

#include "src/common/trace_context.h"

namespace sand {

WorkerPool::WorkerPool(Options options) : options_(options) {
  if (options_.num_threads < 1) {
    options_.num_threads = 1;
  }
  if (options_.max_queued < 1) {
    options_.max_queued = 1;
  }
  threads_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

bool WorkerPool::TrySubmit(std::function<void()> task) {
  // Capture the submitter's trace context so the span recorded by the
  // worker parents under the span that submitted the task, not under
  // whatever the worker happened to run last.
  if (CurrentTraceContext().active()) {
    task = [ctx = CurrentTraceContext(), inner = std::move(task)] {
      ScopedTraceContext scope(ctx);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ || queue_.size() >= options_.max_queued) {
      ++stats_.rejected;
      return false;
    }
    queue_.push_back(std::move(task));
    ++stats_.submitted;
  }
  wake_.notify_one();
  return true;
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // shutdown with an empty queue
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    ++stats_.executed;
    lock.unlock();
    task();
    task = nullptr;  // release the task's captures before counting it done
    lock.lock();
    --active_;
    if (active_ == 0 && queue_.empty()) {
      idle_.notify_all();
    }
  }
}

void WorkerPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void WorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  threads_.clear();
}

WorkerPoolStats WorkerPool::stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

size_t WorkerPool::Pending() {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void RunAll(WorkerPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  std::mutex mutex;
  std::condition_variable done;
  size_t remaining = n;
  auto run = [&](size_t i) {
    fn(i);
    // Notify under the lock: the caller returns, and destroys `done`, as
    // soon as it sees remaining == 0.
    std::lock_guard<std::mutex> lock(mutex);
    --remaining;
    done.notify_one();
  };
  for (size_t i = 1; i < n; ++i) {
    if (pool == nullptr || !pool->TrySubmit([&run, i] { run(i); })) {
      run(i);
    }
  }
  if (n > 0) {
    run(0);
  }
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return remaining == 0; });
}

}  // namespace sand
