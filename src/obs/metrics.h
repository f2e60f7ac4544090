// Process-global metrics registry (DESIGN.md §7).
//
// The stores, the codec, the executor, the scheduler, and the VFS all
// publish here, and the snapshot is exported as a SAND view — reading
// "/.sand/metrics" through SandFs returns the JSON produced by
// Registry::ToJson() (tools/sand_stat pretty-prints it). The registry is
// process-cumulative: every instance of a component adds into the same
// named metric.
//
// Four primitives, all lock-free on the hot path:
//   Counter   - monotonic; sharded across cache lines so concurrent bumps
//               from different threads never contend (one relaxed
//               fetch_add on the caller's shard, measured < 10 ns/op by
//               bench_micro_obs)
//   Gauge     - instantaneous signed value (relaxed store)
//   Histogram - log-linear buckets (exact below 16, 4 sub-buckets per
//               power of two above: <= 12.5% relative error) with
//               p50/p90/p95/p99 extraction; used for latencies in ns
//   InstanceCounter - one component instance's share of a Counter. Its
//               Add bumps the instance's own count and the process Counter
//               in one statement, so a component's stats() and
//               /.sand/metrics count every event alike. This is the only
//               way a per-instance count is kept: no component bumps a
//               struct field beside a registry counter.
//
// Components cache the pointers Registry hands out at construction time;
// the name lookup (mutex + map) never sits on a hot path. Pointers are
// stable for the process lifetime — the registry only grows.

#ifndef SAND_OBS_METRICS_H_
#define SAND_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sand {
namespace obs {

// Monotonically increasing event count. Sharded by SmallThreadId so the
// bump is one uncontended relaxed fetch_add; Value() folds the shards.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  // Not linearizable against concurrent Add; totals settle once writers
  // quiesce (bench/test usage).
  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  static size_t ShardIndex();

  std::array<Shard, kShards> shards_;
};

// Instantaneous signed value (queue depths, bytes resident).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-linear histogram. Values 0..15 land in exact buckets; above that,
// each power of two splits into 4 linear sub-buckets, bounding relative
// error at 1/8. 256 buckets cover the full uint64 range.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 16 + (64 - 4) * 4;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const;
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  // Bucket-midpoint estimate of the q-quantile (q in [0, 1]) over all
  // recorded values; 0 when empty.
  uint64_t Quantile(double q) const;
  // Midpoint of the highest non-empty bucket; 0 when empty.
  uint64_t Max() const;
  void Reset();

  // Bucket counts (indexed by BucketIndex) and the sum, read at one
  // instant; Add() folds such a copy back in, as if its values had been
  // recorded here (the difference of two reads gives one window's values).
  struct Contents {
    std::array<uint64_t, kNumBuckets> buckets{};
    uint64_t sum = 0;
  };
  Contents Read() const;
  void Add(const Contents& contents);

  static size_t BucketIndex(uint64_t value);
  // Inclusive lower bound / midpoint of bucket `index`.
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketMidpoint(size_t index);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

// Name -> metric. Process-global; GetCounter et al. return stable pointers
// (creating the metric on first use) that callers cache.
class Registry {
 public:
  static Registry& Get();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Full snapshot as JSON:
  //   {"counters": {name: value, ...},
  //    "gauges": {name: value, ...},
  //    "histograms": {name: {"count":..,"sum":..,"mean":..,
  //                          "p50":..,"p90":..,"p95":..,"p99":..,"max":..}}}
  // Names are emitted in sorted order so output is stable. A non-empty
  // `prefix` restricts the dump to metrics whose name starts with it;
  // `strip_prefix` then drops the prefix from emitted names (per-job
  // views: "/.sand/jobs/<tag>/metrics" shows "reads", not
  // "sand.job.<tag>.reads").
  std::string ToJson(const std::string& prefix = "", bool strip_prefix = false);

  // Counter totals and histogram contents at one instant, tagged with the
  // ResetAll generation they were read in.
  struct Snapshot {
    uint64_t generation = 0;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, Histogram::Contents> histograms;
  };
  Snapshot TakeSnapshot();
  // The ToJson() shape, but counters and histograms report only what was
  // recorded after `since` (everything since the reset, when a ResetAll
  // came in between); gauges stay instantaneous. Bench rows use it to
  // carry one run's metrics.
  std::string ToJson(const Snapshot& since);

  // Zeroes every registered metric (benches measuring deltas, tests).
  // Metrics stay registered; pointers remain valid.
  void ResetAll();

 private:
  Registry() = default;

  std::string Render(const std::string& prefix, bool strip_prefix, const Snapshot* since);

  std::mutex mutex_;
  uint64_t generation_ = 0;  // bumped by ResetAll
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// A per-instance count bound to the process Counter of the same meaning.
// Add bumps both (two relaxed atomic adds); Value and Reset see only this
// instance, while the process Counter keeps counting every instance bound
// to it. Not copyable: owners hold it by value and read it in stats().
class InstanceCounter {
 public:
  // Resolves `name` in the registry once, here.
  explicit InstanceCounter(const std::string& name)
      : InstanceCounter(Registry::Get().GetCounter(name)) {}
  explicit InstanceCounter(Counter* process) : process_(process) {}

  InstanceCounter(const InstanceCounter&) = delete;
  InstanceCounter& operator=(const InstanceCounter&) = delete;

  void Add(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    process_->Add(n);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  // Zeroes the instance count only; the process Counter is cumulative.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  Counter* process_;
};

}  // namespace obs
}  // namespace sand

#endif  // SAND_OBS_METRICS_H_
