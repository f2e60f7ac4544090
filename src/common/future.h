// Future/Promise: the library's asynchronous-result primitive.
//
// SandClient's pipelined reads (SandApi::ReadAllSharedAsync) hand results
// between threads as futures. The design is deliberately small:
//
//   - the payload is always a Result<T>: a future resolves exactly once,
//     to a value or to a Status, and errors travel the same rail as values
//   - futures are shared handles (copyable, like std::shared_future): any
//     number of consumers may Get() or poll Ready()
//   - OnReady registers a continuation; it runs inline when the future is
//     already resolved, otherwise on the thread that fulfills the promise.
//     Continuations must therefore be cheap and must not block on the
//     future's own executor (SandClient uses one only to unwrap a wire
//     response into the caller's promise)
//   - a Promise destroyed without Set resolves its future to an Internal
//     "broken promise" error, so consumers never wait forever
//
// Everything is guarded by one mutex per shared state; fulfillment
// happens-before every Get()/continuation (TSan-clean by construction).

#ifndef SAND_COMMON_FUTURE_H_
#define SAND_COMMON_FUTURE_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/trace_context.h"

namespace sand {

namespace internal {

template <typename T>
struct FutureState {
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<Result<T>> value;
  std::vector<std::function<void(const Result<T>&)>> callbacks;
};

// Resolves `state` with `result` and runs pending continuations outside
// the lock (on the calling thread).
template <typename T>
void ResolveState(const std::shared_ptr<FutureState<T>>& state, Result<T> result) {
  std::vector<std::function<void(const Result<T>&)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->value.has_value()) {
      return;  // already resolved (e.g. Set raced a broken-promise dtor)
    }
    state->value.emplace(std::move(result));
    callbacks.swap(state->callbacks);
  }
  state->cv.notify_all();
  for (auto& callback : callbacks) {
    callback(*state->value);
  }
}

}  // namespace internal

// Shared handle to an eventually-resolved Result<T>.
template <typename T>
class Future {
 public:
  Future() = default;  // invalid handle; valid() is false

  bool valid() const { return state_ != nullptr; }

  // True when the result is available (Get() would not block).
  bool Ready() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->value.has_value();
  }

  // Blocks until resolved; returns a copy of the result. May be called by
  // any number of threads.
  Result<T> Get() const {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [this] { return state_->value.has_value(); });
    return *state_->value;
  }

  // Runs `callback` with the result: inline if already resolved, otherwise
  // on the fulfilling thread. Callbacks must not block. The registering
  // thread's trace context travels with the callback, so a continuation
  // that fires on the fulfilling thread still attributes its work (and
  // parents its spans) to the request that registered it.
  void OnReady(std::function<void(const Result<T>&)> callback) const {
    if (CurrentTraceContext().active()) {
      callback = [ctx = CurrentTraceContext(), inner = std::move(callback)](const Result<T>& r) {
        ScopedTraceContext scope(ctx);
        inner(r);
      };
    }
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (!state_->value.has_value()) {
        state_->callbacks.push_back(std::move(callback));
        return;
      }
    }
    // Resolved: the value is immutable from here on; run outside the lock.
    callback(*state_->value);
  }

  // An already-resolved future (the synchronous-adapter path).
  static Future<T> FromResult(Result<T> result) {
    Future<T> future;
    future.state_ = std::make_shared<internal::FutureState<T>>();
    future.state_->value.emplace(std::move(result));
    return future;
  }

 private:
  template <typename U>
  friend class Promise;

  std::shared_ptr<internal::FutureState<T>> state_;
};

// Single-use producer side. Move-only; destroying an unfulfilled promise
// resolves the future to an Internal error.
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<internal::FutureState<T>>()) {}
  ~Promise() {
    if (state_ != nullptr) {
      internal::ResolveState(state_, Result<T>(Internal("broken promise")));
    }
  }

  Promise(Promise&& other) noexcept : state_(std::move(other.state_)) {
    other.state_ = nullptr;
  }
  Promise& operator=(Promise&& other) noexcept {
    if (this != &other) {
      if (state_ != nullptr) {
        internal::ResolveState(state_, Result<T>(Internal("broken promise")));
      }
      state_ = std::move(other.state_);
      other.state_ = nullptr;
    }
    return *this;
  }
  Promise(const Promise&) = delete;
  Promise& operator=(const Promise&) = delete;

  Future<T> future() const {
    Future<T> f;
    f.state_ = state_;
    return f;
  }

  // Resolves the future. Exactly one Set wins; later calls are ignored.
  void Set(Result<T> result) { internal::ResolveState(state_, std::move(result)); }

 private:
  std::shared_ptr<internal::FutureState<T>> state_;
};

}  // namespace sand

#endif  // SAND_COMMON_FUTURE_H_
