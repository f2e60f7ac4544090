// Tests for the observability layer (src/obs): lock-free metrics, the span
// ring, and the /.sand control views served by SandFs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/attribution.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/vfs/sand_fs.h"

namespace sand {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Registry;
using obs::Tracer;

// --- minimal JSON validity checker -------------------------------------------
//
// Not a full parser: a bracket/brace/string/number walker sufficient to
// catch the realistic failure modes of hand-emitted JSON (unbalanced
// nesting, unterminated strings, trailing garbage).

bool JsonLooksValid(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty() && !text.empty() && text.front() == '{';
}

// --- counters ----------------------------------------------------------------

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add(1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, AddWithDelta) {
  Counter counter;
  counter.Add(5);
  counter.Add(7);
  EXPECT_EQ(counter.Value(), 12u);
}

TEST(InstanceCounterTest, AddMovesInstanceAndProcessCounts) {
  Counter* process = Registry::Get().GetCounter("test.obs.instance.add");
  const uint64_t before = process->Value();
  obs::InstanceCounter counter("test.obs.instance.add");
  counter.Add();
  counter.Add(4);
  EXPECT_EQ(counter.Value(), 5u);
  EXPECT_EQ(process->Value() - before, 5u);
}

TEST(InstanceCounterTest, InstancesSumInTheProcessCounter) {
  Counter* process = Registry::Get().GetCounter("test.obs.instance.sum");
  const uint64_t before = process->Value();
  obs::InstanceCounter a(process);
  obs::InstanceCounter b("test.obs.instance.sum");
  a.Add(3);
  b.Add(7);
  EXPECT_EQ(a.Value(), 3u);
  EXPECT_EQ(b.Value(), 7u);
  EXPECT_EQ(process->Value() - before, 10u);
}

TEST(InstanceCounterTest, ResetZeroesOnlyTheInstance) {
  Counter* process = Registry::Get().GetCounter("test.obs.instance.reset");
  const uint64_t before = process->Value();
  obs::InstanceCounter counter(process);
  counter.Add(6);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(process->Value() - before, 6u);
  counter.Add(2);
  EXPECT_EQ(counter.Value(), 2u);
  EXPECT_EQ(process->Value() - before, 8u);
}

TEST(InstanceCounterTest, ConcurrentAddsAreExact) {
  Counter* process = Registry::Get().GetCounter("test.obs.instance.concurrent");
  const uint64_t before = process->Value();
  obs::InstanceCounter counter(process);
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAdds; ++i) {
        counter.Add(1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kAdds);
  EXPECT_EQ(process->Value() - before, static_cast<uint64_t>(kThreads) * kAdds);
}

TEST(GaugeTest, SetAddReset) {
  Gauge gauge;
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
  gauge.Add(-50);
  EXPECT_EQ(gauge.Value(), -8);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

// --- histograms --------------------------------------------------------------

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < 16; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Count(), 16u);
  EXPECT_EQ(h.Sum(), 120u);
  // Values below 16 land in exact buckets, so quantiles are exact too.
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 15u);
}

TEST(HistogramTest, BucketRelativeErrorBound) {
  // Midpoint of the bucket holding v is within 12.5% of v for all v >= 16.
  for (uint64_t v : {16ull, 100ull, 1000ull, 123456ull, 87654321ull, (1ull << 40) + 12345}) {
    size_t bucket = Histogram::BucketIndex(v);
    uint64_t lower = Histogram::BucketLowerBound(bucket);
    uint64_t mid = Histogram::BucketMidpoint(bucket);
    EXPECT_LE(lower, v);
    EXPECT_LT(v, Histogram::BucketLowerBound(bucket + 1));
    double err = std::abs(static_cast<double>(mid) - static_cast<double>(v)) /
                 static_cast<double>(v);
    EXPECT_LE(err, 0.125) << "v=" << v;
  }
}

TEST(HistogramTest, QuantilesOnKnownDistribution) {
  Histogram h;
  // 1..1000 uniformly: p50 ~ 500, p99 ~ 990.
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Count(), 1000u);
  auto within = [](uint64_t got, double want, double tol) {
    return std::abs(static_cast<double>(got) - want) <= tol * want;
  };
  EXPECT_TRUE(within(h.Quantile(0.5), 500.0, 0.13)) << h.Quantile(0.5);
  EXPECT_TRUE(within(h.Quantile(0.99), 990.0, 0.13)) << h.Quantile(0.99);
  EXPECT_TRUE(within(h.Max(), 1000.0, 0.13)) << h.Max();
  EXPECT_NEAR(h.Mean(), 500.5, 0.01);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
}

TEST(HistogramTest, ConcurrentRecordsKeepTotalCount) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(i * 7 + static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
}

// --- registry ----------------------------------------------------------------

TEST(RegistryTest, StablePointersAndJson) {
  Registry& registry = Registry::Get();
  Counter* a = registry.GetCounter("test.obs.registry.counter");
  Counter* b = registry.GetCounter("test.obs.registry.counter");
  EXPECT_EQ(a, b);
  a->Add(3);
  registry.GetGauge("test.obs.registry.gauge")->Set(-7);
  registry.GetHistogram("test.obs.registry.hist")->Record(1234);

  std::string json = registry.ToJson();
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"test.obs.registry.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.registry.gauge\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.registry.hist\""), std::string::npos);
}

TEST(RegistryTest, ConcurrentLookupsOfOneName) {
  Registry& registry = Registry::Get();
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      seen[static_cast<size_t>(t)] = registry.GetCounter("test.obs.registry.racy");
      seen[static_cast<size_t>(t)]->Add(1);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  EXPECT_EQ(seen[0]->Value(), static_cast<uint64_t>(kThreads));
}

// The number after `"name": ` in a registry dump; -1 when absent.
long long JsonNumber(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  size_t at = json.find(key);
  return at == std::string::npos ? -1 : std::stoll(json.substr(at + key.size()));
}

TEST(RegistryTest, JsonSinceSnapshotReportsOnlyTheWindow) {
  Registry& registry = Registry::Get();
  Counter* counter = registry.GetCounter("test.obs.window.counter");
  Histogram* histogram = registry.GetHistogram("test.obs.window.hist");
  counter->Add(5);
  histogram->Record(1000);
  const Registry::Snapshot start = registry.TakeSnapshot();
  counter->Add(2);
  histogram->Record(7);
  registry.GetCounter("test.obs.window.fresh")->Add(4);  // registered inside the window
  registry.GetGauge("test.obs.window.gauge")->Set(9);

  // Counters and histograms show the window; gauges stay instantaneous.
  std::string window = registry.ToJson(start);
  EXPECT_TRUE(JsonLooksValid(window)) << window;
  EXPECT_EQ(JsonNumber(window, "test.obs.window.counter"), 2) << window;
  EXPECT_EQ(JsonNumber(window, "test.obs.window.fresh"), 4) << window;
  EXPECT_EQ(JsonNumber(window, "test.obs.window.gauge"), 9) << window;
  EXPECT_NE(window.find("\"test.obs.window.hist\": {\"count\": 1, \"sum\": 7, "),
            std::string::npos)
      << window;
  // The plain dump stays cumulative.
  EXPECT_EQ(JsonNumber(registry.ToJson(), "test.obs.window.counter"), 7);

  // A ResetAll inside the window: everything since the reset is reported.
  registry.ResetAll();
  counter->Add(3);
  window = registry.ToJson(start);
  EXPECT_EQ(JsonNumber(window, "test.obs.window.counter"), 3) << window;
  EXPECT_NE(window.find("\"test.obs.window.hist\": {\"count\": 0, "), std::string::npos)
      << window;
}

// --- tracer ------------------------------------------------------------------

TEST(TracerTest, NestedSpansRecordInnerFirst) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  {
    SAND_SPAN("outer_span");
    {
      SAND_SPAN("inner_span");
    }
  }
  std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  size_t inner = json.find("inner_span");
  size_t outer = json.find("outer_span");
  ASSERT_NE(inner, std::string::npos);
  ASSERT_NE(outer, std::string::npos);
  // Spans record at scope exit: the inner one lands in the ring first.
  EXPECT_LT(inner, outer);
  // Chrome trace-event envelope.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(TracerTest, RingWrapsWithoutGrowingAndCountsDrops) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  uint64_t base = tracer.RecordedCount();
  uint64_t dropped_base = tracer.DroppedCount();
  const uint64_t capacity = tracer.Capacity();
  const uint64_t kEvents = capacity + 100;
  for (uint64_t i = 0; i < kEvents; ++i) {
    tracer.Record("wrap_span", Nanos{static_cast<int64_t>(i)}, Nanos{1}, /*span_id=*/0,
                  TraceContext{});
  }
  EXPECT_EQ(tracer.RecordedCount() - base, kEvents);
  // Overwritten events are surfaced, not silently forgotten (Clear resets
  // head_, so every ticket past the fresh capacity is a drop).
  EXPECT_EQ(tracer.DroppedCount() - dropped_base, kEvents - capacity);
  EXPECT_GE(Registry::Get().GetCounter("sand.trace.dropped")->Value(), kEvents - capacity);
  std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonLooksValid(json)) << json.substr(0, 200);
  // The dump holds at most `capacity` events; oldest were overwritten.
  size_t events = 0;
  for (size_t pos = json.find("wrap_span"); pos != std::string::npos;
       pos = json.find("wrap_span", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, capacity);
}

TEST(TracerTest, ResizeSwapsInFreshRing) {
  Tracer& tracer = Tracer::Get();
  size_t original = tracer.Capacity();
  tracer.Resize(2048);
  EXPECT_EQ(tracer.Capacity(), 2048u);
  {
    SAND_SPAN("post_resize_span");
  }
  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_STREQ(events.back().name, "post_resize_span");
  // Requests below the floor are clamped, not honored.
  tracer.Resize(1);
  EXPECT_EQ(tracer.Capacity(), 1024u);
  tracer.Resize(original);
  tracer.Clear();
}

TEST(TracerTest, DisabledSpansSkipTheRing) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.SetEnabled(false);
  uint64_t base = tracer.RecordedCount();
  {
    SAND_SPAN("invisible");
  }
  tracer.SetEnabled(true);
  EXPECT_EQ(tracer.RecordedCount(), base);
}

TEST(TracerTest, ConcurrentRecordsAllLand) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  uint64_t base = tracer.RecordedCount();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        SAND_SPAN("mt_span");
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(tracer.RecordedCount() - base, static_cast<uint64_t>(kThreads) * kPerThread);
  // A dump racing nothing now; still well-formed.
  EXPECT_TRUE(JsonLooksValid(tracer.ToChromeJson()));
}

// --- /.sand control views ----------------------------------------------------

class NullProvider : public ViewProvider {
 public:
  Result<SharedBytes> Materialize(const ViewPath&) override {
    return NotFound("no objects");
  }
  Result<std::string> GetMetadata(const ViewPath&, const std::string&) override {
    return NotFound("no xattrs");
  }
  Status OnSessionOpen(const std::string&) override { return Status::Ok(); }
  Status OnSessionClose(const std::string&) override { return Status::Ok(); }
};

TEST(ControlViewTest, MetricsRoundTripThroughSandFs) {
  Registry::Get().GetCounter("test.obs.view.marker")->Add(99);
  NullProvider provider;
  SandFs fs(&provider);
  auto fd = fs.Open("/.sand/metrics");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  auto bytes = fs.ReadAllShared(*fd);
  ASSERT_TRUE(bytes.ok());
  std::string body((*bytes)->begin(), (*bytes)->end());
  EXPECT_TRUE(JsonLooksValid(body)) << body.substr(0, 200);
  EXPECT_NE(body.find("\"test.obs.view.marker\": 99"), std::string::npos) << body;
  // Same bytes as asking the registry directly... modulo metrics recorded
  // in between, so compare against a fresh open instead.
  EXPECT_TRUE(fs.Close(*fd).ok());
}

TEST(ControlViewTest, TraceRoundTripThroughSandFs) {
  {
    SAND_SPAN("view_probe_span");
  }
  NullProvider provider;
  SandFs fs(&provider);
  auto fd = fs.Open("/.sand/trace");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  auto bytes = fs.ReadAllShared(*fd);
  ASSERT_TRUE(bytes.ok());
  std::string body((*bytes)->begin(), (*bytes)->end());
  EXPECT_TRUE(JsonLooksValid(body)) << body.substr(0, 200);
  EXPECT_NE(body.find("view_probe_span"), std::string::npos);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_TRUE(fs.Close(*fd).ok());
}

TEST(ControlViewTest, SnapshotIsStableAfterOpen) {
  NullProvider provider;
  SandFs fs(&provider);
  auto fd = fs.Open("/.sand/metrics");
  ASSERT_TRUE(fd.ok());
  auto before = fs.ReadAllShared(*fd);
  ASSERT_TRUE(before.ok());
  // Mutate the registry after the open: the snapshot must not change.
  Registry::Get().GetCounter("test.obs.view.late")->Add(1);
  std::vector<uint8_t> buffer((*before)->size());
  auto n = fs.PRead(*fd, buffer, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, (*before)->size());
  EXPECT_EQ(buffer, **before);
  EXPECT_TRUE(fs.Close(*fd).ok());
}

TEST(ControlViewTest, ControlDirAndErrors) {
  NullProvider provider;
  SandFs fs(&provider);
  auto listing = fs.ListDir("/.sand");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(*listing,
            (std::vector<std::string>{"health", "jobs", "metrics", "tenants", "trace"}));
  EXPECT_FALSE(fs.Open("/.sand").ok());
  EXPECT_FALSE(fs.Open("/.sand/bogus").ok());
  EXPECT_FALSE(fs.Open("/.sand/jobs/nonexistent-job/metrics").ok());
  // getxattr has no meaning on a control fd.
  auto fd = fs.Open("/.sand/metrics");
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(fs.GetXattr(*fd, "path").ok());
  EXPECT_TRUE(fs.Close(*fd).ok());
}

TEST(ControlViewTest, PerJobMetricsView) {
  obs::JobRegistry& jobs = obs::JobRegistry::Get();
  uint32_t id = jobs.Intern("obs-view-job");
  ASSERT_NE(id, 0u);
  obs::JobMetrics* metrics = obs::JobMetricsFor(id);
  ASSERT_NE(metrics, nullptr);
  metrics->reads->Add(4);
  metrics->bytes_read->Add(4096);

  NullProvider provider;
  SandFs fs(&provider);
  auto tags = fs.ListDir("/.sand/jobs");
  ASSERT_TRUE(tags.ok());
  EXPECT_NE(std::find(tags->begin(), tags->end(), "obs-view-job"), tags->end());

  auto fd = fs.Open("/.sand/jobs/obs-view-job/metrics");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  auto bytes = fs.ReadAllShared(*fd);
  ASSERT_TRUE(bytes.ok());
  std::string body((*bytes)->begin(), (*bytes)->end());
  EXPECT_TRUE(JsonLooksValid(body)) << body.substr(0, 200);
  // The job prefix is stripped: the view shows "reads", not
  // "sand.job.obs-view-job.reads" — and nothing from other jobs.
  EXPECT_NE(body.find("\"reads\": 4"), std::string::npos) << body;
  EXPECT_NE(body.find("\"bytes_read\": 4096"), std::string::npos) << body;
  EXPECT_EQ(body.find("sand.job."), std::string::npos) << body;
  EXPECT_EQ(body.find("sand.fs."), std::string::npos) << body;
  EXPECT_TRUE(fs.Close(*fd).ok());
}

TEST(ControlViewTest, HealthViewAndViolationCounters) {
  // Healthy by default: permissive budgets, no degraded disk.
  Registry::Get().GetGauge("sand.store.disk.degraded")->Set(0);
  NullProvider provider;
  SandFs fs(&provider);
  {
    auto fd = fs.Open("/.sand/health");
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    auto bytes = fs.ReadAllShared(*fd);
    ASSERT_TRUE(bytes.ok());
    std::string body((*bytes)->begin(), (*bytes)->end());
    EXPECT_TRUE(JsonLooksValid(body)) << body;
    EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos) << body;
    EXPECT_TRUE(fs.Close(*fd).ok());
  }

  // One violation -> degraded, plus a sand.health.* counter bump.
  uint64_t disk_violations = Registry::Get().GetCounter("sand.health.disk_degraded")->Value();
  Registry::Get().GetGauge("sand.store.disk.degraded")->Set(1);
  {
    auto fd = fs.Open("/.sand/health");
    ASSERT_TRUE(fd.ok());
    auto bytes = fs.ReadAllShared(*fd);
    ASSERT_TRUE(bytes.ok());
    std::string body((*bytes)->begin(), (*bytes)->end());
    EXPECT_NE(body.find("\"status\": \"degraded\""), std::string::npos) << body;
    EXPECT_NE(body.find("\"check\": \"disk_degraded\""), std::string::npos) << body;
    EXPECT_TRUE(fs.Close(*fd).ok());
  }
  EXPECT_GT(Registry::Get().GetCounter("sand.health.disk_degraded")->Value(), disk_violations);

  // A second violation -> unhealthy. Saturate the (gauge-reported) pool.
  Registry::Get().GetGauge("sand.pool.async.capacity")->Set(10);
  Registry::Get().GetGauge("sand.pool.async.pending")->Set(10);
  {
    auto fd = fs.Open("/.sand/health");
    ASSERT_TRUE(fd.ok());
    auto bytes = fs.ReadAllShared(*fd);
    ASSERT_TRUE(bytes.ok());
    std::string body((*bytes)->begin(), (*bytes)->end());
    EXPECT_NE(body.find("\"status\": \"unhealthy\""), std::string::npos) << body;
    EXPECT_TRUE(fs.Close(*fd).ok());
  }

  Registry::Get().GetGauge("sand.store.disk.degraded")->Set(0);
  Registry::Get().GetGauge("sand.pool.async.pending")->Set(0);
  Registry::Get().GetGauge("sand.pool.async.capacity")->Set(0);
}

}  // namespace
}  // namespace sand
