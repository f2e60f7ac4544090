// Micro-benchmark for the zero-copy object path.
//
// Two questions, each answered before/after:
//
//   1. Allocation cost of serving a memory-tier cache hit. "Before" is the
//      legacy byte-copy path (Get copies the object out of the store, then
//      Frame::Deserialize copies the pixels again). "After" is
//      GetShared + DeserializeShared, where the served Frame aliases the
//      cache-resident allocation. Measured by overriding global
//      operator new/delete and counting bytes, at two frame sizes — the
//      zero-copy number must be independent of frame size.
//
//   2. Aggregate cache-hit throughput at 1 vs 8 scheduler threads.
//      "Before" is emulated faithfully in-bench: one global mutex around a
//      key->vector map whose Get copies under the lock (the pre-sharding
//      MemoryStore). "After" is the sharded TieredCache's GetShared. Each
//      served hit is followed by a modeled downstream consume latency
//      (sleep), the same device-modeling convention RemoteStore/GpuModel
//      use; consumes overlap across threads, so the measurement isolates
//      how much the storage layer itself serializes. This keeps the
//      comparison meaningful on small CI machines where 8 compute-bound
//      threads cannot physically scale.
//
// Output: one JSON document on stdout (bench/README.md records the
// headline numbers).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/obs/metrics.h"
#include "src/storage/object_store.h"
#include "src/tensor/frame.h"

// --- Allocation metering -----------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocated_bytes{0};
std::atomic<bool> g_metering{false};
}  // namespace

void* operator new(size_t size) {
  if (g_metering.load(std::memory_order_relaxed)) {
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace sand {
namespace {

// The pre-sharding store: one mutex, one map, Get copies under the lock.
class LegacyMemoryStore {
 public:
  void Put(const std::string& key, std::vector<uint8_t> data) {
    std::lock_guard<std::mutex> lock(mutex_);
    objects_[key] = std::move(data);
  }
  bool Get(const std::string& key, std::vector<uint8_t>* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      return false;
    }
    *out = it->second;  // full payload copy under the global lock
    return true;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::vector<uint8_t>> objects_;
};

Frame MakeFrame(int h, int w, int c) {
  Frame frame(h, w, c);
  auto data = frame.MutableData();
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131);
  }
  return frame;
}

// Bytes allocated per served hit, averaged over `iters`.
struct BytesPerHit {
  double legacy = 0;
  double zero_copy = 0;
};

BytesPerHit MeasureBytesPerHit(int h, int w, int c, int iters) {
  Frame frame = MakeFrame(h, w, c);
  TieredCache cache(std::make_shared<MemoryStore>(), std::make_shared<MemoryStore>());
  if (!cache.Put("hit", frame.Serialize(), Tier::kMemory).ok()) {
    std::abort();
  }
  BytesPerHit result;

  g_allocated_bytes.store(0);
  g_metering.store(true);
  for (int i = 0; i < iters; ++i) {
    auto shared = cache.GetShared("hit");
    if (!shared.ok()) std::abort();
    std::vector<uint8_t> bytes(**shared);  // copies out of the store
    auto served = Frame::Deserialize(bytes);  // copies the pixels again
    if (!served.ok() || served->empty()) std::abort();
  }
  g_metering.store(false);
  result.legacy = static_cast<double>(g_allocated_bytes.load()) / iters;

  g_allocated_bytes.store(0);
  g_metering.store(true);
  for (int i = 0; i < iters; ++i) {
    auto bytes = cache.GetShared("hit");  // reference to the cached buffer
    if (!bytes.ok()) std::abort();
    auto served = Frame::DeserializeShared(*bytes);  // aliases the pixels
    if (!served.ok() || served->empty()) std::abort();
  }
  g_metering.store(false);
  result.zero_copy = static_cast<double>(g_allocated_bytes.load()) / iters;
  return result;
}

// Aggregate hits/sec across `num_threads`, each hit followed by the modeled
// consume latency.
constexpr auto kConsumeLatency = std::chrono::microseconds(100);
constexpr int kKeys = 64;

double RunLegacyThroughput(int num_threads, int hits_per_thread,
                           const std::vector<uint8_t>& payload) {
  LegacyMemoryStore store;
  for (int k = 0; k < kKeys; ++k) {
    store.Put("obj/" + std::to_string(k), payload);
  }
  std::atomic<uint64_t> sink{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> copy;
      for (int i = 0; i < hits_per_thread; ++i) {
        if (!store.Get("obj/" + std::to_string((i + t * 17) % kKeys), &copy)) {
          std::abort();
        }
        sink.fetch_add(copy[0], std::memory_order_relaxed);
        std::this_thread::sleep_for(kConsumeLatency);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(num_threads) * hits_per_thread / secs;
}

double RunShardedThroughput(int num_threads, int hits_per_thread,
                            const std::vector<uint8_t>& payload) {
  TieredCache cache(std::make_shared<MemoryStore>(), std::make_shared<MemoryStore>());
  for (int k = 0; k < kKeys; ++k) {
    if (!cache.Put("obj/" + std::to_string(k), payload, Tier::kMemory).ok()) {
      std::abort();
    }
  }
  std::atomic<uint64_t> sink{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < hits_per_thread; ++i) {
        auto bytes = cache.GetShared("obj/" + std::to_string((i + t * 17) % kKeys));
        if (!bytes.ok()) {
          std::abort();
        }
        sink.fetch_add((**bytes)[0], std::memory_order_relaxed);
        std::this_thread::sleep_for(kConsumeLatency);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(num_threads) * hits_per_thread / secs;
}

int Main() {
  // Registry crosscheck (observability layer): every TieredCache hit below
  // must land in the global sand.cache.memory.hits counter, and nothing
  // here may miss. The bench fails if its own accounting disagrees with
  // the registry's.
  obs::Counter* reg_hits = obs::Registry::Get().GetCounter("sand.cache.memory.hits");
  obs::Counter* reg_misses = obs::Registry::Get().GetCounter("sand.cache.misses");
  const uint64_t hits_before = reg_hits->Value();
  const uint64_t misses_before = reg_misses->Value();
  uint64_t expected_hits = 0;

  // --- bytes allocated per served cache hit --------------------------------
  const int kAllocIters = 200;
  BytesPerHit small = MeasureBytesPerHit(64, 96, 3, kAllocIters);    // 18 KiB
  BytesPerHit large = MeasureBytesPerHit(256, 256, 3, kAllocIters);  // 192 KiB
  expected_hits += 2ULL * 2 * kAllocIters;  // two sizes x (Get + GetShared loops)

  // --- aggregate hit throughput, 1 vs 8 threads ----------------------------
  // ~1.7 MB payloads (1024x576x3): big enough that the legacy
  // copy-under-global-lock visibly serializes against the 100us modeled
  // consume.
  std::vector<uint8_t> payload(12 + 1024 * 576 * 3, 7);
  const int kHits = 400;
  double legacy_1 = RunLegacyThroughput(1, kHits, payload);
  double legacy_8 = RunLegacyThroughput(8, kHits / 4, payload);
  double sharded_1 = RunShardedThroughput(1, kHits, payload);
  double sharded_8 = RunShardedThroughput(8, kHits / 4, payload);
  expected_hits += static_cast<uint64_t>(kHits) + 8ULL * (kHits / 4);

  const uint64_t observed_hits = reg_hits->Value() - hits_before;
  const uint64_t observed_misses = reg_misses->Value() - misses_before;
  if (observed_hits != expected_hits || observed_misses != 0) {
    std::fprintf(stderr,
                 "obs registry mismatch: expected %llu memory hits / 0 misses, "
                 "registry saw %llu hits / %llu misses\n",
                 static_cast<unsigned long long>(expected_hits),
                 static_cast<unsigned long long>(observed_hits),
                 static_cast<unsigned long long>(observed_misses));
    return 1;
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"micro_object_path\",\n");
  std::printf("  \"bytes_allocated_per_hit\": {\n");
  std::printf("    \"frame_64x96x3\":   {\"legacy_copy\": %.0f, \"zero_copy\": %.0f},\n",
              small.legacy, small.zero_copy);
  std::printf("    \"frame_256x256x3\": {\"legacy_copy\": %.0f, \"zero_copy\": %.0f},\n",
              large.legacy, large.zero_copy);
  std::printf("    \"note\": \"zero_copy is frame-size independent (refcount handling only)\"\n");
  std::printf("  },\n");
  std::printf("  \"cache_hit_throughput_hits_per_sec\": {\n");
  std::printf("    \"consume_latency_us\": %lld,\n",
              static_cast<long long>(kConsumeLatency.count()));
  std::printf("    \"payload_bytes\": %zu,\n", payload.size());
  std::printf("    \"legacy_global_lock\":  {\"threads_1\": %.0f, \"threads_8\": %.0f, \"scaling\": %.2f},\n",
              legacy_1, legacy_8, legacy_8 / legacy_1);
  std::printf("    \"sharded_zero_copy\":   {\"threads_1\": %.0f, \"threads_8\": %.0f, \"scaling\": %.2f},\n",
              sharded_1, sharded_8, sharded_8 / sharded_1);
  std::printf("    \"speedup_at_8_threads\": %.2f\n", sharded_8 / legacy_8);
  std::printf("  },\n");
  std::printf("  \"obs_registry_crosscheck\": {\"expected_memory_hits\": %llu, "
              "\"observed_memory_hits\": %llu, \"observed_misses\": %llu, \"ok\": true}\n",
              static_cast<unsigned long long>(expected_hits),
              static_cast<unsigned long long>(observed_hits),
              static_cast<unsigned long long>(observed_misses));
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace sand

int main() { return sand::Main(); }
