#include "ledger.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PerBatch(double total, uint64_t batches) {
  return batches == 0 ? 0.0 : total / static_cast<double>(batches);
}

double SafeRatio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double UnattributedPercent(double process_cpu_ns, double attributed_ns) {
  return process_cpu_ns <= 0.0 ? 0.0 : 100.0 * (process_cpu_ns - attributed_ns) / process_cpu_ns;
}

double OverheadPercent(double untraced_rate, double traced_rate) {
  return untraced_rate <= 0.0 ? 0.0 : 100.0 * (untraced_rate - traced_rate) / untraced_rate;
}

namespace {

// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo, int64_t hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

// Adds one trace's self times (spans sorted by start) to the ledger.
void AddSelfTimes(const std::vector<Span>& trace, Ledger& ledger) {
  const size_t n = trace.size();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(n);
  for (size_t c = 0; c < n; ++c) {
    const Span& child = trace[c];
    int child_depth = LayerDepth(child.layer);
    size_t best = n;
    int best_depth = -1;
    for (size_t p = 0; p < n && trace[p].start_ns <= child.start_ns; ++p) {
      const Span& parent = trace[p];
      int depth = LayerDepth(parent.layer);
      if (p == c || depth >= child_depth || parent.end_ns < child.start_ns) {
        continue;
      }
      // Deepest enclosing layer wins; among equals the later start (spans
      // are sorted by start, so a later p replaces an earlier one).
      if (depth >= best_depth) {
        best = p;
        best_depth = depth;
      }
    }
    if (best < n) {
      children[best].emplace_back(child.start_ns, child.end_ns);
    }
  }
  for (size_t p = 0; p < n; ++p) {
    const Span& span = trace[p];
    int64_t self = span.end_ns - span.start_ns;
    if (!children[p].empty()) {
      self -= CoveredNs(std::move(children[p]), span.start_ns, span.end_ns);
    }
    ledger.layers[static_cast<size_t>(span.layer)].self_ns += self;
  }
}

}  // namespace

Ledger BuildLedger(std::vector<Span> spans) {
  Ledger ledger;
  for (const Span& span : spans) {
    LayerTotals& layer = ledger.layers[static_cast<size_t>(span.layer)];
    VerbTotals& verb = layer.verbs[static_cast<size_t>(span.verb)];
    int64_t duration = span.end_ns - span.start_ns;
    ++verb.calls;
    verb.ok += span.ok ? 1 : 0;
    verb.bytes += span.bytes;
    verb.time_ns += duration;
    verb.durations_ns.push_back(static_cast<double>(duration));
    layer.time_ns += duration;
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.trace_id != b.trace_id ? a.trace_id < b.trace_id : a.start_ns < b.start_ns;
  });
  size_t begin = 0;
  while (begin < spans.size()) {
    size_t end = begin;
    while (end < spans.size() && spans[end].trace_id == spans[begin].trace_id) {
      ++end;
    }
    if (spans[begin].trace_id == 0) {
      // No trace: every span is its own root.
      for (size_t i = begin; i < end; ++i) {
        ledger.layers[static_cast<size_t>(spans[i].layer)].self_ns +=
            spans[i].end_ns - spans[i].start_ns;
      }
    } else {
      AddSelfTimes(std::vector<Span>(spans.begin() + static_cast<std::ptrdiff_t>(begin),
                                     spans.begin() + static_cast<std::ptrdiff_t>(end)),
                   ledger);
    }
    begin = end;
  }
  return ledger;
}

}  // namespace perfbench
