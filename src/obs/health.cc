#include "src/obs/health.h"

#include <sstream>

#include "src/obs/metrics.h"

namespace sand {
namespace obs {

HealthMonitor& HealthMonitor::Get() {
  static HealthMonitor* monitor = new HealthMonitor();  // never destroyed
  return *monitor;
}

void HealthMonitor::SetThresholds(const HealthThresholds& thresholds) {
  std::lock_guard<std::mutex> lock(mutex_);
  thresholds_ = thresholds;
}

HealthThresholds HealthMonitor::GetThresholds() {
  std::lock_guard<std::mutex> lock(mutex_);
  return thresholds_;
}

HealthVerdict HealthMonitor::Evaluate() {
  HealthThresholds t = GetThresholds();
  Registry& reg = Registry::Get();
  HealthVerdict verdict;

  auto violate = [&verdict, &reg](const char* check, double value, double threshold) {
    verdict.violations.push_back({check, value, threshold});
    reg.GetCounter(std::string("sand.health.") + check)->Add(1);
  };

  if (t.p99_materialize_wait_ns > 0) {
    // GetHistogram registers an empty histogram if none exists yet; the
    // sample-count guard keeps that from producing a verdict.
    Histogram* wait = reg.GetHistogram("sand.fs.materialize_wait_ns");
    if (wait->Count() >= t.min_wait_samples) {
      ++verdict.checks_evaluated;
      uint64_t p99 = wait->Quantile(0.99);
      if (p99 > t.p99_materialize_wait_ns) {
        violate("p99_materialize_wait", static_cast<double>(p99),
                static_cast<double>(t.p99_materialize_wait_ns));
      }
    }
  }

  if (t.fail_on_disk_degraded) {
    ++verdict.checks_evaluated;
    int64_t degraded = reg.GetGauge("sand.store.disk.degraded")->Value();
    if (degraded != 0) {
      violate("disk_degraded", static_cast<double>(degraded), 0.0);
    }
  }

  if (t.pool_saturation > 0) {
    int64_t capacity = reg.GetGauge("sand.pool.async.capacity")->Value();
    if (capacity > 0) {
      ++verdict.checks_evaluated;
      int64_t pending = reg.GetGauge("sand.pool.async.pending")->Value();
      double saturation = static_cast<double>(pending) / static_cast<double>(capacity);
      if (saturation > t.pool_saturation) {
        violate("pool_saturation", saturation, t.pool_saturation);
      }
    }
  }

  verdict.status = verdict.violations.empty()
                       ? "ok"
                       : (verdict.violations.size() == 1 ? "degraded" : "unhealthy");
  return verdict;
}

std::string HealthMonitor::EvaluateToJson() {
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
