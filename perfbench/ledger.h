// Arithmetic of the benchmark's reports: percentiles, per-batch ratios, and
// the per-layer ledger built from a traced window's spans.
//
// Self time: a span's parent is the span of the same trace at the nearest
// outer layer (smaller LayerDepth) whose interval contains the child's
// start, the latest-starting one on ties. A layer's self time is its spans'
// time minus the part of each span its children cover (the union of their
// intervals, clipped to the parent). Spans outside any trace (trace id 0)
// have no parent and no children.

#ifndef SAND_PERFBENCH_LEDGER_H_
#define SAND_PERFBENCH_LEDGER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "probes.h"

namespace perfbench {

// The q-quantile (q in [0, 1]) with linear interpolation between the two
// closest ranks (numpy's default); 0 for no samples.
double Percentile(std::vector<double> values, double q);

// total / batches, 0 when there are no batches.
double PerBatch(double total, uint64_t batches);

// num / den, 0 when den is 0.
double SafeRatio(double num, double den);

// Share of process CPU not covered by the attributed layer time, in percent.
double UnattributedPercent(double process_cpu_ns, double attributed_ns);

// Throughput lost to tracing, in percent of the untraced rate.
double OverheadPercent(double untraced_rate, double traced_rate);

struct VerbTotals {
  uint64_t calls = 0;
  uint64_t ok = 0;  // calls that succeeded (for gets: hits)
  uint64_t bytes = 0;
  int64_t time_ns = 0;
  std::vector<double> durations_ns;
};

struct LayerTotals {
  std::array<VerbTotals, kNumVerbs> verbs;
  int64_t time_ns = 0;  // all spans of the layer
  int64_t self_ns = 0;  // minus child coverage
};

struct Ledger {
  std::array<LayerTotals, kNumLayers> layers;
  const LayerTotals& layer(Layer l) const { return layers[static_cast<size_t>(l)]; }
  const VerbTotals& verb(Layer l, Verb v) const {
    return layers[static_cast<size_t>(l)].verbs[static_cast<size_t>(v)];
  }
};

// Totals per layer and verb, and self time per layer (see the file comment).
Ledger BuildLedger(std::vector<Span> spans);

}  // namespace perfbench

#endif  // SAND_PERFBENCH_LEDGER_H_
