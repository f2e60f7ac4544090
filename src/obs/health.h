// Health / SLO check (DESIGN.md §12).
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
// counter once per evaluation, so /.sand/metrics shows that an SLO was
// out of budget even after the condition clears.
//
// The check is deliberately decoupled from the components it watches:
// it reads metrics back out of the Registry by name (the names are the
// contract), so it needs no references into the service, pool, or store —
// and evaluates whatever subset exists, skipping checks whose inputs have
// not been registered or have too few samples to judge. Its budgets are
// constants (health.cc), permissive enough that an idle or lightly-loaded
// instance reports "ok". It keeps no state and runs on every
// /.sand/health open.

#ifndef SAND_OBS_HEALTH_H_
#define SAND_OBS_HEALTH_H_

#include <string>

namespace sand {
namespace obs {

// Runs every check against the registry's current values, bumps
// "sand.health.<check>" per violation, and renders the verdict as JSON (the
// /.sand/health payload).
std::string EvaluateHealthToJson();

}  // namespace obs
}  // namespace sand

#endif  // SAND_OBS_HEALTH_H_
