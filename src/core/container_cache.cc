#include "src/core/container_cache.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sand {

namespace {

// Registry handles resolved once; Fetch only touches lock-free counters.
struct ContainerMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* bytes_fetched;
  static ContainerMetrics& Get() {
    static ContainerMetrics m{
        obs::Registry::Get().GetCounter("sand.container_cache.hits"),
        obs::Registry::Get().GetCounter("sand.container_cache.misses"),
        obs::Registry::Get().GetCounter("sand.container_cache.bytes_fetched"),
    };
    return m;
  }
};

}  // namespace

Result<SharedBytes> ContainerCache::Fetch(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ContainerMetrics::Get().hits->Add(1);
      return it->second->second;
    }
  }
  // Fetch outside the lock: remote stores may block for transfer time.
  // GetShared: a memory-resident dataset store hands out its own buffer, so
  // the cache pins a reference instead of a second copy of the container.
  Result<SharedBytes> bytes = [&] {
    SAND_SPAN("container_read");
    return source_->GetShared(key);
  }();
  if (!bytes.ok()) {
    return bytes.status();
  }
  SharedBytes shared = bytes.TakeValue();
  ContainerMetrics::Get().misses->Add(1);
  ContainerMetrics::Get().bytes_fetched->Add(shared->size());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Raced with another fetcher; keep theirs.
    return it->second->second;
  }
  lru_.emplace_front(key, shared);
  index_[key] = lru_.begin();
  while (lru_.size() > max_entries_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return shared;
}

}  // namespace sand
