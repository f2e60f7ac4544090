#include "src/storage/circuit_breaker.h"

#include <utility>

namespace sand {

CircuitBreaker::CircuitBreaker(DiskFaultPolicy policy, StateCallback on_state_change,
                               const Clock& clock)
    : policy_(policy), on_state_change_(std::move(on_state_change)), clock_(clock) {}

bool CircuitBreaker::Allow() {
  if (!offline_.load(std::memory_order_relaxed)) {
    return true;
  }
  const Nanos now = clock_.Now();
  Nanos probe_at = probe_at_.load(std::memory_order_relaxed);
  while (now >= probe_at) {
    // Claim the probe slot: exactly one caller per reprobe interval tests
    // the domain; everyone else fails fast.
    if (probe_at_.compare_exchange_weak(probe_at, now + policy_.reprobe_interval,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void CircuitBreaker::Record(bool healthy) {
  if (healthy) {
    streak_.store(0, std::memory_order_relaxed);
    if (offline_.exchange(false, std::memory_order_relaxed) && on_state_change_) {
      on_state_change_(false, 0);
    }
    return;
  }
  const int streak = streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= policy_.offline_threshold &&
      !offline_.exchange(true, std::memory_order_relaxed)) {
    probe_at_.store(clock_.Now() + policy_.reprobe_interval, std::memory_order_relaxed);
    if (on_state_change_) {
      on_state_change_(true, streak);
    }
  } else if (offline_.load(std::memory_order_relaxed)) {
    // A failed probe: push the next probe out a full interval.
    probe_at_.store(clock_.Now() + policy_.reprobe_interval, std::memory_order_relaxed);
  }
}

}  // namespace sand
