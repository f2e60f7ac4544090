// Small LRU of encoded video containers.
//
// Fetching a container from the dataset store (possibly a bandwidth-
// throttled remote volume) dominates the cost of touching a video, so the
// service keeps the most recently used containers pinned in memory while
// their subtrees are being materialized.

#ifndef SAND_CORE_CONTAINER_CACHE_H_
#define SAND_CORE_CONTAINER_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/storage/object_store.h"

namespace sand {

class ContainerCache {
 public:
  ContainerCache(std::shared_ptr<ObjectStore> source, size_t max_entries)
      : source_(std::move(source)), max_entries_(max_entries) {}

  // Returns the container bytes for `key`, fetching on miss. Hits and
  // fetches count on sand.container_cache.{hits,misses}.
  Result<SharedBytes> Fetch(const std::string& key);

 private:
  std::shared_ptr<ObjectStore> source_;
  const size_t max_entries_;
  std::mutex mutex_;
  // MRU-front list + index.
  std::list<std::pair<std::string, SharedBytes>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
};

}  // namespace sand

#endif  // SAND_CORE_CONTAINER_CACHE_H_
