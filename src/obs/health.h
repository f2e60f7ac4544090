// Health / SLO monitor (DESIGN.md §12).
//
// Rolls the raw registry up into one operator-facing verdict: is this
// SAND instance serving within its latency budget, with its disks
// healthy and its pool keeping up?
// Exported as the SAND view "/.sand/health":
//
//   {"status": "ok" | "degraded" | "unhealthy",
//    "violations": [{"check": "p99_materialize_wait",
//                    "value": .., "threshold": ..}, ...],
//    "checks_evaluated": 3}
//
// Zero violations -> "ok", exactly one -> "degraded", two or more ->
// "unhealthy". Each violating check also bumps a "sand.health.<check>"
// counter once per evaluation, so history/metrics show *when* an SLO was
// out of budget even after the condition clears.
//
// The monitor is deliberately decoupled from the components it watches:
// it reads metrics back out of the Registry by name (the names are the
// contract), so it needs no references into the service, pool, or store —
// and evaluates whatever subset exists, skipping checks whose inputs have
// not been registered or have too few samples to judge.
//
// Evaluation runs on demand (every /.sand/health open) and on every
// history tick (via the sampler SandService registers).

#ifndef SAND_OBS_HEALTH_H_
#define SAND_OBS_HEALTH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sand {
namespace obs {

// Budgets the monitor judges against. Default-constructed thresholds are
// permissive enough that an idle or lightly-loaded instance reports "ok".
struct HealthThresholds {
  // p99 of "sand.fs.materialize_wait_ns" must stay below this (0 disables).
  uint64_t p99_materialize_wait_ns = 500'000'000;  // 500 ms
  // Checked only once the histogram has this many observations.
  uint64_t min_wait_samples = 32;

  // "sand.pool.async.pending" / "sand.pool.async.capacity" must stay below
  // this fraction (<= 0 disables). 1.0 = a completely full queue.
  double pool_saturation = 0.95;

  // Whether a set "sand.store.disk.degraded" gauge is a violation.
  bool fail_on_disk_degraded = true;
};

struct HealthViolation {
  std::string check;  // e.g. "p99_materialize_wait"
  double value = 0;
  double threshold = 0;
};

struct HealthVerdict {
  std::string status;  // "ok" | "degraded" | "unhealthy"
  std::vector<HealthViolation> violations;
  int checks_evaluated = 0;
};

class HealthMonitor {
 public:
  static HealthMonitor& Get();

  void SetThresholds(const HealthThresholds& thresholds);
  HealthThresholds GetThresholds();

  // Runs every enabled check against the registry's current values and
  // bumps "sand.health.<check>" per violation.
  HealthVerdict Evaluate();

  // Evaluate() rendered as JSON (the /.sand/health payload).
  std::string EvaluateToJson();

 private:
  HealthMonitor() = default;

  std::mutex mutex_;
  HealthThresholds thresholds_;
};

}  // namespace obs
}  // namespace sand

#endif  // SAND_OBS_HEALTH_H_
