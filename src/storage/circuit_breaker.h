// CircuitBreaker: retry-with-backoff plus an offline breaker for one
// failure domain (DESIGN.md §10, §14). Its one user is GuardedStore
// (object_store.h), which runs every op of a store through it; the
// TieredCache disk tier and each remote ClusterStore node are GuardedStores.
//
// A domain is online until `offline_threshold` ops in a row fail. It is
// then marked offline and Allow() refuses, so callers fail fast instead of
// queueing on a dead device or on dial timeouts. Once per
// `reprobe_interval` one caller wins a compare-and-swap on the probe clock
// and is let through to test the domain: a success closes the breaker and
// resets the streak, a failure pushes the next probe a full interval out.
//
// Run() is the retry loop. Each domain says what is transient (the disk
// retries UNAVAILABLE and DATA_LOSS, a peer retries UNAVAILABLE on a fresh
// dial); the final outcome of every run feeds the breaker. The state
// callback fires when the domain goes offline or comes back.

#ifndef SAND_STORAGE_CIRCUIT_BREAKER_H_
#define SAND_STORAGE_CIRCUIT_BREAKER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sand {

// Retry / degradation knobs for a failure domain (DESIGN.md §10). Named
// for the disk tier it first guarded; ClusterStore reuses it per peer.
struct DiskFaultPolicy {
  int max_retries = 2;                       // retries per op, after the first try
  Nanos initial_backoff = 1 * kNanosPerMilli;
  double backoff_multiplier = 2.0;
  int offline_threshold = 3;                 // consecutive failed ops -> offline
  Nanos reprobe_interval = 100 * kNanosPerMilli;
};

class CircuitBreaker {
 public:
  // Called with offline = true when a failure streak of length `streak`
  // trips the breaker, and with offline = false when a success closes it.
  using StateCallback = std::function<void(bool offline, int streak)>;

  explicit CircuitBreaker(DiskFaultPolicy policy, StateCallback on_state_change = {},
                          const Clock& clock = WallClock::Get());

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  // True when an op may be attempted: the domain is online, or it is
  // offline and this caller claimed the expired probe slot.
  bool Allow();

  // Feeds one op's outcome. `healthy` = the op did not end in a transient
  // infrastructure error (a miss is a healthy answer).
  void Record(bool healthy);

  // Runs `attempt()` (returning a Status or a Result) and retries it, up
  // to max_retries times, while `transient(status)` holds for its status,
  // sleeping an exponential backoff between tries. Each retry is counted
  // on `retries` (when non-null) under a "breaker_retry" span. Records
  // the final outcome; `attempt` must be idempotent.
  template <typename Fn>
  auto Run(Fn&& attempt, bool (*transient)(const Status&), obs::Counter* retries = nullptr)
      -> decltype(attempt());

  bool offline() const { return offline_.load(std::memory_order_relaxed); }
  int failure_streak() const { return streak_.load(std::memory_order_relaxed); }

 private:
  const DiskFaultPolicy policy_;
  const StateCallback on_state_change_;
  const Clock& clock_;
  std::atomic<int> streak_{0};
  std::atomic<bool> offline_{false};
  std::atomic<Nanos> probe_at_{0};
};

template <typename Fn>
auto CircuitBreaker::Run(Fn&& attempt, bool (*transient)(const Status&), obs::Counter* retries)
    -> decltype(attempt()) {
  auto result = attempt();
  Nanos backoff = policy_.initial_backoff;
  for (int retry = 0; retry < policy_.max_retries && transient(StatusOf(result)); ++retry) {
    SAND_SPAN("breaker_retry");
    if (retries != nullptr) {
      retries->Add(1);
    }
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
    }
    backoff = static_cast<Nanos>(static_cast<double>(backoff) * policy_.backoff_multiplier);
    result = attempt();
  }
  Record(!transient(StatusOf(result)));
  return result;
}

}  // namespace sand

#endif  // SAND_STORAGE_CIRCUIT_BREAKER_H_
