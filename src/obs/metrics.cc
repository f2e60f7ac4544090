#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "src/common/threading.h"

namespace sand {
namespace obs {

size_t Counter::ShardIndex() { return SmallThreadId() % kShards; }

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < 16) {
    return static_cast<size_t>(value);
  }
  int msb = 63 - std::countl_zero(value);  // >= 4 here
  size_t sub = static_cast<size_t>((value >> (msb - 2)) & 3);
  return 16 + static_cast<size_t>(msb - 4) * 4 + sub;
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < 16) {
    return index;
  }
  size_t octave = 4 + (index - 16) / 4;
  size_t sub = (index - 16) % 4;
  return (uint64_t{1} << octave) + (static_cast<uint64_t>(sub) << (octave - 2));
}

uint64_t Histogram::BucketMidpoint(size_t index) {
  if (index < 16) {
    return index;
  }
  size_t octave = 4 + (index - 16) / 4;
  uint64_t width = uint64_t{1} << (octave - 2);
  return BucketLowerBound(index) + width / 2;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Mean() const {
  uint64_t count = Count();
  return count == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(count);
}

uint64_t Histogram::Quantile(double q) const {
  uint64_t count = Count();
  if (count == 0) {
    return 0;
  }
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  // Rank of the target value (1-based), nearest-rank definition.
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      return BucketMidpoint(i);
    }
  }
  return BucketMidpoint(kNumBuckets - 1);
}

uint64_t Histogram::Max() const {
  for (size_t i = kNumBuckets; i > 0; --i) {
    if (buckets_[i - 1].load(std::memory_order_relaxed) != 0) {
      return BucketMidpoint(i - 1);
    }
  }
  return 0;
}

Histogram::Contents Histogram::Read() const {
  Contents contents;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    contents.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  contents.sum = Sum();
  return contents;
}

void Histogram::Add(const Contents& contents) {
  for (size_t i = 0; i < kNumBuckets; ++i) {
    buckets_[i].fetch_add(contents.buckets[i], std::memory_order_relaxed);
  }
  sum_.fetch_add(contents.sum, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
}

Registry& Registry::Get() {
  static Registry* registry = new Registry();  // never destroyed: callers cache pointers
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

std::string Registry::ToJson(const std::string& prefix, bool strip_prefix) {
  return Render(prefix, strip_prefix, nullptr);
}

std::string Registry::ToJson(const Snapshot& since) { return Render("", false, &since); }

Registry::Snapshot Registry::TakeSnapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snapshot;
  snapshot.generation = generation_;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace(name, counter->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace(name, histogram->Read());
  }
  return snapshot;
}

std::string Registry::Render(const std::string& prefix, bool strip_prefix,
                             const Snapshot* since) {
  auto matches = [&prefix](const std::string& name) {
    return prefix.empty() || name.rfind(prefix, 0) == 0;
  };
  auto emitted = [&](const std::string& name) {
    return strip_prefix ? name.substr(prefix.size()) : name;
  };
  std::lock_guard<std::mutex> lock(mutex_);
  // A ResetAll after the snapshot already dropped everything before it.
  if (since != nullptr && since->generation != generation_) {
    since = nullptr;
  }
  auto counter_value = [since](const std::string& name, const Counter& counter) {
    uint64_t value = counter.Value();
    if (since != nullptr) {
      auto it = since->counters.find(name);
      value -= it == since->counters.end() ? 0 : std::min(value, it->second);
    }
    return value;
  };
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!matches(name)) {
      continue;
    }
    out << (first ? "\n" : ",\n") << "    \"" << emitted(name)
        << "\": " << counter_value(name, *counter);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!matches(name)) {
      continue;
    }
    out << (first ? "\n" : ",\n") << "    \"" << emitted(name) << "\": " << gauge->Value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!matches(name)) {
      continue;
    }
    const Histogram* shown = histogram.get();
    Histogram window;
    if (since != nullptr) {
      // The window's values: this read minus the snapshot's.
      Histogram::Contents contents = histogram->Read();
      if (auto it = since->histograms.find(name); it != since->histograms.end()) {
        for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
          contents.buckets[i] -= std::min(contents.buckets[i], it->second.buckets[i]);
        }
        contents.sum -= std::min(contents.sum, it->second.sum);
      }
      window.Add(contents);
      shown = &window;
    }
    out << (first ? "\n" : ",\n") << "    \"" << emitted(name) << "\": {"
        << "\"count\": " << shown->Count() << ", \"sum\": " << shown->Sum()
        << ", \"mean\": " << shown->Mean() << ", \"p50\": " << shown->Quantile(0.5)
        << ", \"p90\": " << shown->Quantile(0.9) << ", \"p95\": " << shown->Quantile(0.95)
        << ", \"p99\": " << shown->Quantile(0.99) << ", \"max\": " << shown->Max() << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++generation_;
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

}  // namespace obs
}  // namespace sand
