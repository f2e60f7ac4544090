#include "src/obs/attribution.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace sand {
namespace obs {

JobRegistry& JobRegistry::Get() {
  static JobRegistry* registry = new JobRegistry();  // never destroyed
  return *registry;
}

uint32_t JobRegistry::Intern(const std::string& tag) {
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

  auto bundle = std::make_unique<JobMetrics>();
  Registry& reg = Registry::Get();
  const std::string prefix = "sand.job." + tag + ".";
  bundle->reads = reg.GetCounter(prefix + "reads");
  bundle->bytes_read = reg.GetCounter(prefix + "bytes_read");
  bundle->batches_served = reg.GetCounter(prefix + "batches_served");
  bundle->cache_hits = reg.GetCounter(prefix + "cache_hits");
  bundle->decode_ns = reg.GetCounter(prefix + "decode_ns");
  bundle->materialize_wait_ns = reg.GetHistogram(prefix + "materialize_wait_ns");
  metrics_.push_back(std::move(bundle));

  ids_.emplace(tag, id);
  return id;
}

std::string JobRegistry::NameOf(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > tags_.size()) {
    return "-";
  }
  return tags_[id - 1];
}

JobMetrics* JobRegistry::MetricsFor(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > metrics_.size()) {
    return nullptr;
  }
  return metrics_[id - 1].get();
}

std::vector<std::string> JobRegistry::Tags() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> tags = tags_;
  std::sort(tags.begin(), tags.end());
  return tags;
}

TenantRegistry& TenantRegistry::Get() {
  static TenantRegistry* registry = new TenantRegistry();  // never destroyed
  return *registry;
}

uint32_t TenantRegistry::Intern(const std::string& tag) {
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
  metrics_.push_back(std::move(bundle));

  ids_.emplace(tag, id);
  return id;
}

std::string TenantRegistry::NameOf(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > tags_.size()) {
    return "-";
  }
  return tags_[id - 1];
}

TenantMetrics* TenantRegistry::MetricsFor(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > metrics_.size()) {
    return nullptr;
  }
  return metrics_[id - 1].get();
}

std::vector<std::string> TenantRegistry::Tags() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> tags = tags_;
  std::sort(tags.begin(), tags.end());
  return tags;
}

}  // namespace obs
}  // namespace sand
