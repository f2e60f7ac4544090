#include "src/obs/health.h"

#include <cstdint>
#include <sstream>
#include <vector>

#include "src/obs/metrics.h"

namespace sand {
namespace obs {

namespace {

// p99 of "sand.fs.materialize_wait_ns" must stay below this...
constexpr uint64_t kP99MaterializeWaitNs = 500'000'000;  // 500 ms
// ...checked only once the histogram has this many observations.
constexpr uint64_t kMinWaitSamples = 32;
// "sand.pool.async.pending" / "sand.pool.async.capacity" must stay below
// this fraction. 1.0 = a completely full queue.
constexpr double kPoolSaturation = 0.95;

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

HealthVerdict Evaluate() {
  Registry& reg = Registry::Get();
  HealthVerdict verdict;

  auto violate = [&verdict, &reg](const char* check, double value, double threshold) {
    verdict.violations.push_back({check, value, threshold});
    reg.GetCounter(std::string("sand.health.") + check)->Add(1);
  };

  // GetHistogram registers an empty histogram if none exists yet; the
  // sample-count guard keeps that from producing a verdict.
  Histogram* wait = reg.GetHistogram("sand.fs.materialize_wait_ns");
  if (wait->Count() >= kMinWaitSamples) {
    ++verdict.checks_evaluated;
    uint64_t p99 = wait->Quantile(0.99);
    if (p99 > kP99MaterializeWaitNs) {
      violate("p99_materialize_wait", static_cast<double>(p99),
              static_cast<double>(kP99MaterializeWaitNs));
    }
  }

  // A set "sand.store.disk.degraded" gauge is a violation.
  ++verdict.checks_evaluated;
  int64_t degraded = reg.GetGauge("sand.store.disk.degraded")->Value();
  if (degraded != 0) {
    violate("disk_degraded", static_cast<double>(degraded), 0.0);
  }

  int64_t capacity = reg.GetGauge("sand.pool.async.capacity")->Value();
  if (capacity > 0) {
    ++verdict.checks_evaluated;
    int64_t pending = reg.GetGauge("sand.pool.async.pending")->Value();
    double saturation = static_cast<double>(pending) / static_cast<double>(capacity);
    if (saturation > kPoolSaturation) {
      violate("pool_saturation", saturation, kPoolSaturation);
    }
  }

  verdict.status = verdict.violations.empty()
                       ? "ok"
                       : (verdict.violations.size() == 1 ? "degraded" : "unhealthy");
  return verdict;
}

}  // namespace

std::string EvaluateHealthToJson() {
  HealthVerdict verdict = Evaluate();
  std::ostringstream out;
  out << "{\n  \"status\": \"" << verdict.status << "\",\n  \"checks_evaluated\": "
      << verdict.checks_evaluated << ",\n  \"violations\": [";
  bool first = true;
  for (const HealthViolation& v : verdict.violations) {
    out << (first ? "\n" : ",\n") << "    {\"check\": \"" << v.check
        << "\", \"value\": " << v.value << ", \"threshold\": " << v.threshold << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

}  // namespace obs
}  // namespace sand
