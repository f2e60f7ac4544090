#include "src/obs/attribution.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace sand {
namespace obs {

namespace {

// Binds a new tag's bundle to its metrics in the global registry.
template <typename Metrics>
std::unique_ptr<Metrics> BindMetrics(const std::string& tag);

template <>
std::unique_ptr<JobMetrics> BindMetrics<JobMetrics>(const std::string& tag) {
  auto bundle = std::make_unique<JobMetrics>();
  Registry& reg = Registry::Get();
  const std::string prefix = "sand.job." + tag + ".";
  bundle->reads = reg.GetCounter(prefix + "reads");
  bundle->bytes_read = reg.GetCounter(prefix + "bytes_read");
  bundle->batches_served = reg.GetCounter(prefix + "batches_served");
  bundle->cache_hits = reg.GetCounter(prefix + "cache_hits");
  bundle->decode_ns = reg.GetCounter(prefix + "decode_ns");
  bundle->materialize_wait_ns = reg.GetHistogram(prefix + "materialize_wait_ns");
  return bundle;
}

template <>
std::unique_ptr<TenantMetrics> BindMetrics<TenantMetrics>(const std::string& tag) {
  auto bundle = std::make_unique<TenantMetrics>();
  Registry& reg = Registry::Get();
  const std::string prefix = "sand.tenant." + tag + ".";
  bundle->sessions = reg.GetCounter(prefix + "sessions");
  bundle->requests = reg.GetCounter(prefix + "requests");
  bundle->rejected = reg.GetCounter(prefix + "rejected");
  bundle->bytes_read = reg.GetCounter(prefix + "bytes_read");
  bundle->sched_jobs_run = reg.GetCounter(prefix + "sched_jobs_run");
  bundle->inflight = reg.GetGauge(prefix + "inflight");
  bundle->resident_bytes = reg.GetGauge(prefix + "resident_bytes");
  bundle->materialize_wait_ns = reg.GetHistogram(prefix + "materialize_wait_ns");
  return bundle;
}

}  // namespace

template <typename Metrics>
TagRegistry<Metrics>& TagRegistry<Metrics>::Get() {
  static TagRegistry* registry = new TagRegistry();  // never destroyed
  return *registry;
}

template <typename Metrics>
uint32_t TagRegistry<Metrics>::Intern(const std::string& tag) {
  if (tag.empty()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ids_.find(tag);
  if (it != ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(tags_.size()) + 1;
  tags_.push_back(tag);
  metrics_.push_back(BindMetrics<Metrics>(tag));
  ids_.emplace(tag, id);
  return id;
}

template <typename Metrics>
std::string TagRegistry<Metrics>::NameOf(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > tags_.size()) {
    return "-";
  }
  return tags_[id - 1];
}

template <typename Metrics>
Metrics* TagRegistry<Metrics>::MetricsFor(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > metrics_.size()) {
    return nullptr;
  }
  return metrics_[id - 1].get();
}

template <typename Metrics>
std::vector<std::string> TagRegistry<Metrics>::Tags() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> tags = tags_;
  std::sort(tags.begin(), tags.end());
  return tags;
}

template class TagRegistry<JobMetrics>;
template class TagRegistry<TenantMetrics>;

}  // namespace obs
}  // namespace sand
