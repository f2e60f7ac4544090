// The data-path workloads and the closed-loop trainer that drives them.
//
// Every workload builds a SAND system from a synthetic dataset generated
// from the run's seed, sets it up several times (setup_s is the median),
// and then times a window of whole units of work: passes over one chunk's
// batch views, or, for cold_train, fresh-service rounds over several
// chunks. A unit's work counts (frames decoded, augment ops, cache hits,
// ...) must repeat exactly; a run whose counts differ is marked incorrect.
// See README.md for why each workload exists and what it should move.

#ifndef SAND_PERFBENCH_WORKLOADS_H_
#define SAND_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: half the window untraced, half through the decorators;
  // reports the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  // Where a traced run writes its spans (tab-separated); empty = nowhere.
  std::string trace_out;
};

// Everything one run reports; serialized as one JSON object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Diagnostic(const std::string& name, double value);
  // Work done by one unit (pass or round). `checked` counts must repeat
  // exactly across units and across runs of one seed.
  void Work(const std::string& name, uint64_t value, bool checked);
  void Error(const std::string& message);
  void Attempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return errors_.empty() && failed_ == 0; }
  std::string ToJson(const RunOptions& options) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> diagnostics_;
  std::vector<std::pair<std::string, std::pair<uint64_t, bool>>> work_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload into `report`. False for an unknown workload name.
bool RunWorkload(const RunOptions& options, Report& report);

}  // namespace perfbench

#endif  // SAND_PERFBENCH_WORKLOADS_H_
