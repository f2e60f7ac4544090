// Unit tests for src/storage: memory/disk/remote stores and the tiered cache,
// plus regression tests for the crash-safety sweep (path traversal, delete
// desync, vanished-file races, reservation races) and the disk tier's
// retry / degradation machinery.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/compress/lossy.h"
#include "src/storage/circuit_breaker.h"
#include "src/storage/fault_injection.h"
#include "src/obs/metrics.h"
#include "src/storage/object_store.h"

namespace sand {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> values) { return values; }

std::string TempDir(const char* tag) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("sand_storage_test_" + std::string(tag) + "_" +
                     std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(MemoryStoreTest, PutGetDelete) {
  MemoryStore store;
  ASSERT_TRUE(store.Put("a", Bytes({1, 2, 3})).ok());
  EXPECT_TRUE(store.Contains("a"));
  EXPECT_EQ(**store.GetShared("a"), Bytes({1, 2, 3}));
  EXPECT_EQ(*store.SizeOf("a"), 3u);
  EXPECT_EQ(store.UsedBytes(), 3u);
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_FALSE(store.Contains("a"));
  EXPECT_EQ(store.UsedBytes(), 0u);
  EXPECT_FALSE(store.GetShared("a").ok());
  EXPECT_FALSE(store.Delete("a").ok());
}

TEST(MemoryStoreTest, OverwriteAdjustsUsage) {
  MemoryStore store;
  ASSERT_TRUE(store.Put("k", std::vector<uint8_t>(100)).ok());
  ASSERT_TRUE(store.Put("k", std::vector<uint8_t>(40)).ok());
  EXPECT_EQ(store.UsedBytes(), 40u);
}

TEST(MemoryStoreTest, EnforcesCapacity) {
  MemoryStore store(10);
  ASSERT_TRUE(store.Put("a", std::vector<uint8_t>(8)).ok());
  EXPECT_FALSE(store.Put("b", std::vector<uint8_t>(3)).ok());
  // Replacing an object counts the freed space.
  EXPECT_TRUE(store.Put("a", std::vector<uint8_t>(10)).ok());
}

TEST(MemoryStoreTest, ConcurrentSameSizeOverwritesNearCapacity) {
  // Regression: Reserve() used to fetch_add the full incoming size before
  // crediting the replaced object, so concurrent same-size overwrites at a
  // full store transiently double-counted and spuriously failed with
  // ResourceExhausted. A same-size overwrite is a zero-delta reservation.
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  constexpr size_t kObjectSize = 100;
  MemoryStore store(kThreads * kObjectSize);  // exactly full after setup
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(store.Put("k" + std::to_string(t), std::vector<uint8_t>(kObjectSize)).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &failures, t] {
      const std::string key = "k" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        if (!store.Put(key, std::vector<uint8_t>(kObjectSize)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0) << "same-size overwrites must never hit the capacity check";
  EXPECT_EQ(store.UsedBytes(), kThreads * kObjectSize);
}

TEST(MemoryStoreTest, ListKeysSorted) {
  MemoryStore store;
  ASSERT_TRUE(store.Put("b", Bytes({1})).ok());
  ASSERT_TRUE(store.Put("a", Bytes({1})).ok());
  EXPECT_EQ(store.ListKeys(), (std::vector<std::string>{"a", "b"}));
}

TEST(DiskStoreTest, PutGetAcrossDirectories) {
  std::string dir = TempDir("basic");
  auto store = DiskStore::Open(dir, 1 << 20);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("data/train/vid0.svc", Bytes({9, 8, 7})).ok());
  EXPECT_EQ(**(*store)->GetShared("data/train/vid0.svc"), Bytes({9, 8, 7}));
  EXPECT_EQ((*store)->UsedBytes(), 3u);
  ASSERT_TRUE((*store)->Delete("data/train/vid0.svc").ok());
  EXPECT_EQ((*store)->UsedBytes(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(DiskStoreTest, RescanRecoversState) {
  std::string dir = TempDir("rescan");
  {
    auto store = DiskStore::Open(dir, 1 << 20);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("cache/x", std::vector<uint8_t>(64)).ok());
    ASSERT_TRUE((*store)->Put("cache/sub/y", std::vector<uint8_t>(32)).ok());
  }
  // A new store over the same root discovers the persisted objects — the
  // fault-tolerance path.
  auto recovered = DiskStore::Open(dir, 1 << 20);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->UsedBytes(), 96u);
  EXPECT_TRUE((*recovered)->Contains("cache/x"));
  EXPECT_TRUE((*recovered)->Contains("cache/sub/y"));
  std::filesystem::remove_all(dir);
}

TEST(DiskStoreTest, EnforcesCapacity) {
  std::string dir = TempDir("cap");
  auto store = DiskStore::Open(dir, 100);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("a", std::vector<uint8_t>(80)).ok());
  EXPECT_FALSE((*store)->Put("b", std::vector<uint8_t>(30)).ok());
  std::filesystem::remove_all(dir);
}

TEST(DiskStoreTest, StripsLeadingSlashes) {
  std::string dir = TempDir("slash");
  auto store = DiskStore::Open(dir, 1 << 20);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("/dataset/v.svc", Bytes({1})).ok());
  EXPECT_TRUE((*store)->Contains("/dataset/v.svc"));
  std::filesystem::remove_all(dir);
}

TEST(DiskStoreTest, RejectsPathTraversal) {
  // Regression: keys with ".." components used to resolve to files outside
  // the store root.
  std::string dir = TempDir("traversal");
  auto store = DiskStore::Open(dir, 1 << 20);
  ASSERT_TRUE(store.ok());
  for (const char* key : {"../escape", "a/../../escape", "..", "a/b/../../../x"}) {
    Status status = (*store)->Put(key, Bytes({1}));
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << key;
  }
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir).parent_path() / "escape"));
  // "." components and empty components are harmless and just collapse.
  EXPECT_TRUE((*store)->Put("a/./b//c", Bytes({1})).ok());
  EXPECT_TRUE((*store)->Contains("a/./b//c"));
  // Reserved internal directories are not addressable as keys.
  EXPECT_EQ((*store)->Put(std::string(DiskStore::kTmpDir) + "/x", Bytes({1})).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ((*store)->Put(std::string(DiskStore::kQuarantineDir) + "/x", Bytes({1})).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ((*store)->Put("", Bytes({1})).code(), ErrorCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(DiskStoreTest, DeleteFailureLeavesStateConsistent) {
  // Regression: Delete() used to drop the index entry and decrement usage
  // even when fs::remove failed, leaving accounting out of sync with disk.
  // Force the failure by replacing the object file with a non-empty
  // directory (works even as root, unlike permission tricks).
  std::string dir = TempDir("delfail");
  auto store = DiskStore::Open(dir, 1 << 20);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("victim", std::vector<uint8_t>(32)).ok());
  const uint64_t used_before = (*store)->UsedBytes();
  std::filesystem::path path = std::filesystem::path(dir) / "victim";
  std::filesystem::remove(path);
  std::filesystem::create_directory(path);
  { std::ofstream blocker(path / "child"); }

  Status status = (*store)->Delete("victim");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
  // The entry must still be indexed and accounted — the object was not
  // actually removed from disk.
  EXPECT_TRUE((*store)->Contains("victim"));
  EXPECT_EQ((*store)->UsedBytes(), used_before);

  // Once the obstruction clears, Delete succeeds and accounting returns
  // to zero.
  std::filesystem::remove_all(path);
  { std::ofstream replacement(path, std::ios::binary); }
  EXPECT_TRUE((*store)->Delete("victim").ok());
  EXPECT_EQ((*store)->UsedBytes(), 0u);
  EXPECT_FALSE((*store)->Contains("victim"));
  std::filesystem::remove_all(dir);
}

TEST(DiskStoreTest, VanishedFileReadsAsNotFound) {
  // Regression: GetShared() raced Contains-then-read; a file deleted out
  // from under a live index entry surfaced a raw I/O error. Now it reads as
  // NotFound and the stale entry is dropped.
  std::string dir = TempDir("vanish");
  auto store = DiskStore::Open(dir, 1 << 20);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("ghost", std::vector<uint8_t>(16)).ok());
  std::filesystem::remove(std::filesystem::path(dir) / "ghost");

  Result<SharedBytes> result = (*store)->GetShared("ghost");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE((*store)->Contains("ghost")) << "stale index entry must be dropped";
  EXPECT_EQ((*store)->UsedBytes(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(DiskStoreTest, CorruptObjectQuarantinedNotServed) {
  // A flipped payload byte must fail the CRC footer check: the reader gets
  // NotFound (never corrupt bytes) and the file is moved to quarantine.
  std::string dir = TempDir("corrupt");
  auto store = DiskStore::Open(dir, 1 << 20);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("obj", std::vector<uint8_t>(64, 0xAB)).ok());
  {
    std::fstream file(std::filesystem::path(dir) / "obj",
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekp(7);
    file.put(static_cast<char>(0xCD));
  }

  Result<SharedBytes> result = (*store)->GetShared("obj");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE((*store)->Contains("obj"));
  // The corrupt file was moved aside for post-mortem, not served or left
  // at its visible path.
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) / "obj"));
  std::filesystem::path quarantine = std::filesystem::path(dir) / DiskStore::kQuarantineDir;
  ASSERT_TRUE(std::filesystem::exists(quarantine));
  EXPECT_FALSE(std::filesystem::is_empty(quarantine));
  std::filesystem::remove_all(dir);
}

TEST(DiskStoreTest, RescanQuarantinesTornFiles) {
  // A torn file written directly at a visible path (simulating pre-footer
  // data or bit rot found at recovery time) must not enter the index.
  std::string dir = TempDir("rescan_torn");
  {
    auto store = DiskStore::Open(dir, 1 << 20);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("good", std::vector<uint8_t>(32)).ok());
  }
  {
    std::ofstream torn(std::filesystem::path(dir) / "torn", std::ios::binary);
    torn << "no footer here";
  }
  auto recovered = DiskStore::Open(dir, 1 << 20);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->Contains("good"));
  EXPECT_FALSE((*recovered)->Contains("torn"));
  EXPECT_EQ((*recovered)->UsedBytes(), 32u);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) / "torn"));
  std::filesystem::remove_all(dir);
}

TEST(DiskStoreTest, CrashBeforeRenameKeepsOldObject) {
  // The atomic-publish protocol: a crash between temp write and rename
  // leaves the previous object version fully intact, and reopening the
  // store sweeps the abandoned temp file.
  std::string dir = TempDir("crash");
  auto store = DiskStore::Open(dir, 1 << 20);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", Bytes({1, 2, 3})).ok());

  Status crashed = (*store)->PutCrashBeforeRename("k", Bytes({9, 9, 9, 9}));
  EXPECT_FALSE(crashed.ok());
  EXPECT_EQ(**(*store)->GetShared("k"), Bytes({1, 2, 3})) << "old version must survive the crash";
  std::filesystem::path tmp_dir = std::filesystem::path(dir) / DiskStore::kTmpDir;
  ASSERT_TRUE(std::filesystem::exists(tmp_dir));
  EXPECT_FALSE(std::filesystem::is_empty(tmp_dir)) << "crash leaves temp debris";

  // Recovery: reopening rescans, keeps the good object, clears the debris.
  auto recovered = DiskStore::Open(dir, 1 << 20);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(**(*recovered)->GetShared("k"), Bytes({1, 2, 3}));
  EXPECT_EQ((*recovered)->UsedBytes(), 3u);
  EXPECT_TRUE(!std::filesystem::exists(tmp_dir) || std::filesystem::is_empty(tmp_dir))
      << "abandoned temp files must be swept on rescan";
  std::filesystem::remove_all(dir);
}

TEST(RemoteStoreTest, CountsTraffic) {
  auto backing = std::make_shared<MemoryStore>();
  RemoteStore remote(backing, /*bandwidth=*/0, /*latency=*/0);
  ASSERT_TRUE(remote.Put("k", std::vector<uint8_t>(100)).ok());
  ASSERT_TRUE(remote.GetShared("k").ok());
  ASSERT_TRUE(remote.GetShared("k").ok());
  RemoteTraffic traffic = remote.traffic();
  EXPECT_EQ(traffic.bytes_written, 100u);
  EXPECT_EQ(traffic.bytes_read, 200u);
  EXPECT_EQ(traffic.write_ops, 1u);
  EXPECT_EQ(traffic.read_ops, 2u);
  remote.ResetTraffic();
  EXPECT_EQ(remote.traffic().bytes_read, 0u);
}

TEST(RemoteStoreTest, MissesDoNotCount) {
  auto backing = std::make_shared<MemoryStore>();
  RemoteStore remote(backing, 0, 0);
  EXPECT_FALSE(remote.GetShared("absent").ok());
  EXPECT_EQ(remote.traffic().read_ops, 0u);
}

TEST(RemoteStoreTest, FailedOpsDoNotCountTraffic) {
  // Audit pin: billing/bench numbers ride on RemoteTraffic, so an op that
  // fails must charge nothing — no phantom bytes for a Put the backing
  // refused, a Get that missed, or a PutIfAbsent that inserted nothing.
  auto backing = std::make_shared<MemoryStore>(/*capacity_bytes=*/10);
  RemoteStore remote(backing, 0, 0);

  // Put over capacity: refused by the backing, no write traffic.
  EXPECT_FALSE(remote.Put("big", std::vector<uint8_t>(100)).ok());
  EXPECT_EQ(remote.traffic().write_ops, 0u);
  EXPECT_EQ(remote.traffic().bytes_written, 0u);

  // Get of a missing key: no read traffic.
  EXPECT_FALSE(remote.GetShared("absent").ok());
  EXPECT_EQ(remote.traffic().read_ops, 0u);
  EXPECT_EQ(remote.traffic().bytes_read, 0u);

  // PutIfAbsent that loses to an existing object moves no bytes; only the
  // inserting call is a write.
  ASSERT_TRUE(remote.Put("k", std::vector<uint8_t>(4)).ok());
  auto lost = remote.PutIfAbsent("k", std::vector<uint8_t>(4));
  ASSERT_TRUE(lost.ok());
  EXPECT_FALSE(*lost);
  EXPECT_EQ(remote.traffic().write_ops, 1u);
  EXPECT_EQ(remote.traffic().bytes_written, 4u);

  // A failed PutIfAbsent (over capacity) charges nothing either.
  EXPECT_FALSE(remote.PutIfAbsent("big2", std::vector<uint8_t>(100)).ok());
  EXPECT_EQ(remote.traffic().write_ops, 1u);
  EXPECT_EQ(remote.traffic().bytes_written, 4u);
}

TEST(RemoteStoreTest, BandwidthDelaysTransfers) {
  auto backing = std::make_shared<MemoryStore>();
  ASSERT_TRUE(backing->Put("k", std::vector<uint8_t>(100 * 1024)).ok());
  // 10 MiB/s -> 100 KiB takes ~10 ms.
  RemoteStore remote(backing, 10.0 * 1024 * 1024, 0);
  Stopwatch watch;
  ASSERT_TRUE(remote.GetShared("k").ok());
  EXPECT_GE(watch.Elapsed(), FromMillis(8));
}

TEST(TieredCacheTest, MemoryHitAvoidsDisk) {
  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto disk = std::make_shared<MemoryStore>(1 << 20);  // stand-in for disk
  TieredCache cache(memory, disk);
  ASSERT_TRUE(cache.Put("hot", Bytes({1, 2}), Tier::kMemory).ok());
  EXPECT_TRUE(memory->Contains("hot"));
  EXPECT_FALSE(disk->Contains("hot"));
  EXPECT_EQ(**cache.GetShared("hot"), Bytes({1, 2}));
}

TEST(TieredCacheTest, DiskHitPromotes) {
  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto disk = std::make_shared<MemoryStore>(1 << 20);
  TieredCache cache(memory, disk);
  ASSERT_TRUE(cache.Put("cold", Bytes({5}), Tier::kDisk).ok());
  EXPECT_FALSE(memory->Contains("cold"));
  EXPECT_EQ(**cache.GetShared("cold"), Bytes({5}));
  EXPECT_TRUE(memory->Contains("cold")) << "read promotes to memory";
}

TEST(TieredCacheTest, MemoryFullFallsThroughToDisk) {
  auto memory = std::make_shared<MemoryStore>(4);
  auto disk = std::make_shared<MemoryStore>(1 << 20);
  TieredCache cache(memory, disk);
  ASSERT_TRUE(cache.Put("big", std::vector<uint8_t>(100), Tier::kMemory).ok());
  EXPECT_FALSE(memory->Contains("big"));
  EXPECT_TRUE(disk->Contains("big"));
}

TEST(TieredCacheTest, DeleteRemovesAllTiers) {
  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto disk = std::make_shared<MemoryStore>(1 << 20);
  TieredCache cache(memory, disk);
  ASSERT_TRUE(cache.Put("k", Bytes({1}), Tier::kDisk).ok());
  ASSERT_TRUE(cache.GetShared("k").ok());  // promoted: now in both tiers
  ASSERT_TRUE(cache.Delete("k").ok());
  EXPECT_FALSE(cache.Contains("k"));
  EXPECT_FALSE(cache.Delete("k").ok());
}

TEST(TieredCacheTest, DeleteRefreshesUsageGauges) {
  TieredCache cache(std::make_shared<MemoryStore>(1 << 20), std::make_shared<MemoryStore>(1 << 20));
  obs::Gauge* memory_used = obs::Registry::Get().GetGauge("sand.cache.memory.used_bytes");
  obs::Gauge* disk_used = obs::Registry::Get().GetGauge("sand.cache.disk.used_bytes");
  ASSERT_TRUE(cache.Put("mem", std::vector<uint8_t>(1000, 1), Tier::kMemory).ok());
  ASSERT_TRUE(cache.Put("disk", std::vector<uint8_t>(500, 2), Tier::kDisk).ok());
  EXPECT_EQ(memory_used->Value(), 1000);
  EXPECT_EQ(disk_used->Value(), 500);
  ASSERT_TRUE(cache.Delete("mem").ok());
  ASSERT_TRUE(cache.Delete("disk").ok());
  EXPECT_EQ(memory_used->Value(), static_cast<int64_t>(cache.MemoryUsedBytes()));
  EXPECT_EQ(disk_used->Value(), static_cast<int64_t>(cache.DiskUsedBytes()));
  EXPECT_EQ(memory_used->Value(), 0);
  EXPECT_EQ(disk_used->Value(), 0);
}

TEST(TieredCacheTest, DemoteSpillsToDisk) {
  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto disk = std::make_shared<MemoryStore>(1 << 20);
  TieredCache cache(memory, disk);
  ASSERT_TRUE(cache.Put("k", Bytes({7}), Tier::kMemory).ok());
  ASSERT_TRUE(cache.Demote("k").ok());
  EXPECT_FALSE(memory->Contains("k"));
  EXPECT_TRUE(disk->Contains("k"));
  EXPECT_EQ(**cache.GetShared("k"), Bytes({7}));
}

// --- Disk-tier retry / degradation (DESIGN.md §10) -------------------------

// Zero-backoff policy so retry tests run instantly.
DiskFaultPolicy FastPolicy() {
  DiskFaultPolicy policy;
  policy.max_retries = 2;
  policy.initial_backoff = 0;
  policy.offline_threshold = 2;
  policy.reprobe_interval = FromMillis(5);
  return policy;
}

TEST(CircuitBreakerTest, TripsElectsOneProbeAndCloses) {
  ManualClock clock;
  DiskFaultPolicy policy = FastPolicy();
  policy.offline_threshold = 3;
  policy.reprobe_interval = FromMillis(100);
  std::vector<std::pair<bool, int>> changes;
  CircuitBreaker breaker(
      policy, [&changes](bool offline, int streak) { changes.emplace_back(offline, streak); },
      clock);

  // offline_threshold failures in a row trip the breaker; ops then fail fast.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(breaker.offline());
    ASSERT_TRUE(breaker.Allow());
    breaker.Record(false);
  }
  EXPECT_TRUE(breaker.offline());
  EXPECT_EQ(breaker.failure_streak(), 3);
  EXPECT_FALSE(breaker.Allow());

  // Once the interval has passed, exactly one of 8 threads calling at the
  // same moment is let through as the probe.
  clock.Advance(policy.reprobe_interval);
  std::atomic<int> ready{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < 8) {
      }
      if (breaker.Allow()) {
        admitted.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  EXPECT_EQ(admitted.load(), 1);

  // The probe fails half an interval after it was claimed: the next probe
  // is a full interval after the failure, not after the claim.
  clock.Advance(policy.reprobe_interval / 2);
  breaker.Record(false);
  clock.Advance(policy.reprobe_interval / 2);
  EXPECT_FALSE(breaker.Allow());
  clock.Advance(policy.reprobe_interval / 2);
  ASSERT_TRUE(breaker.Allow());

  // One success closes the breaker and resets the streak.
  breaker.Record(true);
  EXPECT_FALSE(breaker.offline());
  EXPECT_EQ(breaker.failure_streak(), 0);
  EXPECT_TRUE(breaker.Allow());
  breaker.Record(false);
  EXPECT_FALSE(breaker.offline()) << "a closed breaker needs a fresh streak to trip";
  EXPECT_EQ(changes, (std::vector<std::pair<bool, int>>{{true, 3}, {false, 0}}));
}

TEST(CircuitBreakerTest, RunRetriesOnlyTransientResults) {
  CircuitBreaker breaker(FastPolicy());  // 2 retries, no backoff, threshold 2
  obs::Counter retries;
  bool (*unavailable)(const Status&) = [](const Status& status) {
    return status.code() == ErrorCode::kUnavailable;
  };
  int calls = 0;
  Status down = breaker.Run(
      [&] {
        ++calls;
        return Unavailable("down");
      },
      unavailable, &retries);
  EXPECT_EQ(down.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 3) << "the first try plus max_retries";
  EXPECT_EQ(retries.Value(), 2u);
  EXPECT_EQ(breaker.failure_streak(), 1) << "one failed run is one failure";

  // A miss is a healthy answer: no retry, and the streak resets.
  calls = 0;
  Status miss = breaker.Run(
      [&] {
        ++calls;
        return NotFound("absent");
      },
      unavailable, &retries);
  EXPECT_EQ(miss.code(), ErrorCode::kNotFound);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries.Value(), 2u);
  EXPECT_EQ(breaker.failure_streak(), 0);
}

TEST(TieredCacheTest, RetriesTransientDiskFaults) {
  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto faulty = std::make_shared<FaultInjectingStore>(std::make_shared<MemoryStore>(1 << 20));
  // Exactly one injected write error: the first attempt fails, the retry
  // succeeds, and the breaker never trips.
  FaultRule rule;
  rule.kind = FaultKind::kWriteError;
  rule.max_fires = 1;
  faulty->AddRule(rule);
  TieredCache cache(memory, faulty, FastPolicy());

  EXPECT_TRUE(cache.Put("k", Bytes({1, 2}), Tier::kDisk).ok());
  EXPECT_TRUE(faulty->backing().Contains("k")) << "retry must reach the backing store";
  EXPECT_FALSE(cache.disk_degraded());
  EXPECT_EQ(faulty->stats().write_errors, 1u);
}

TEST(TieredCacheTest, NotFoundDoesNotTripBreaker) {
  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto disk = std::make_shared<MemoryStore>(1 << 20);
  DiskFaultPolicy policy = FastPolicy();
  policy.offline_threshold = 1;
  TieredCache cache(memory, disk, policy);
  // Misses are healthy responses, not infrastructure failures.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(cache.GetShared("absent" + std::to_string(i)).ok());
  }
  EXPECT_FALSE(cache.disk_degraded());
}

TEST(TieredCacheTest, DegradesToMemoryOnlyThenReprobes) {
  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto faulty = std::make_shared<FaultInjectingStore>(std::make_shared<MemoryStore>(1 << 20));
  FaultRule rule;
  rule.kind = FaultKind::kWriteError;  // persistent: every write fails
  faulty->AddRule(rule);
  DiskFaultPolicy policy = FastPolicy();
  policy.max_retries = 0;
  TieredCache cache(memory, faulty, policy);

  // Two failed disk-destined puts trip the breaker (threshold 2); both still
  // succeed overall by degrading into the memory tier.
  EXPECT_TRUE(cache.Put("a", Bytes({1}), Tier::kDisk).ok());
  EXPECT_TRUE(cache.Put("b", Bytes({2}), Tier::kDisk).ok());
  EXPECT_TRUE(cache.disk_degraded());
  EXPECT_TRUE(memory->Contains("a"));
  EXPECT_TRUE(memory->Contains("b"));
  EXPECT_FALSE(faulty->backing().Contains("a"));
  // Memory-tier service continues while degraded; absent keys read as
  // misses, not disk errors.
  EXPECT_EQ(**cache.GetShared("a"), Bytes({1}));
  Result<SharedBytes> miss = cache.GetShared("absent");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), ErrorCode::kNotFound);

  // Durable writes refuse memory fallback while the tier is down.
  EXPECT_EQ(cache.PutDisk("ckpt", Bytes({3})).code(), ErrorCode::kUnavailable);

  // The disk heals; after the reprobe interval one op probes the tier and
  // brings it back online.
  faulty->ClearRules();
  std::this_thread::sleep_for(std::chrono::milliseconds(8));
  EXPECT_TRUE(cache.Put("c", Bytes({4}), Tier::kDisk).ok());
  EXPECT_FALSE(cache.disk_degraded());
  EXPECT_TRUE(faulty->backing().Contains("c"));
  EXPECT_TRUE(cache.PutDisk("ckpt", Bytes({3})).ok());
}

TEST(TieredCacheTest, DiskReadFaultBelowTheThresholdReadsAsMiss) {
  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto faulty = std::make_shared<FaultInjectingStore>(std::make_shared<MemoryStore>(1 << 20));
  ASSERT_TRUE(faulty->backing().Put("k", Bytes({1})).ok());
  FaultRule rule;
  rule.kind = FaultKind::kReadError;  // every read fails, retries included
  faulty->AddRule(rule);
  DiskFaultPolicy policy = FastPolicy();
  policy.offline_threshold = 100;  // the breaker stays closed
  TieredCache cache(memory, faulty, policy);

  // Served exactly as it was Put, or NotFound: a failed read is a miss
  // whether or not the breaker has tripped yet.
  Result<SharedBytes> got = cache.GetShared("k");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kNotFound) << got.status().ToString();
  EXPECT_FALSE(cache.disk_degraded());
  EXPECT_GT(faulty->stats().read_errors, 0u);
}

TEST(TieredCacheTest, DemoteDoesNotSpendTheDiskReprobe) {
  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto faulty = std::make_shared<FaultInjectingStore>(std::make_shared<MemoryStore>(1 << 20));
  FaultRule rule;
  rule.kind = FaultKind::kWriteError;
  faulty->AddRule(rule);
  DiskFaultPolicy policy = FastPolicy();
  policy.max_retries = 0;
  TieredCache cache(memory, faulty, policy);
  ASSERT_TRUE(cache.Put("hot", Bytes({9}), Tier::kMemory).ok());
  EXPECT_TRUE(cache.Put("a", Bytes({1}), Tier::kDisk).ok());
  EXPECT_TRUE(cache.Put("b", Bytes({2}), Tier::kDisk).ok());
  ASSERT_TRUE(cache.disk_degraded());

  // The disk heals and a reprobe falls due. An eviction-driven Demote gets
  // there first; it must leave the probe to the next disk op.
  faulty->ClearRules();
  std::this_thread::sleep_for(std::chrono::milliseconds(8));
  (void)cache.Demote("hot");
  EXPECT_TRUE(cache.Put("c", Bytes({3}), Tier::kDisk).ok());
  EXPECT_TRUE(faulty->backing().Contains("c")) << "the put must probe the healed disk";
  EXPECT_FALSE(cache.disk_degraded());
}

TEST(TieredCacheTest, PutDiskIsDurableOrFails) {
  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto faulty = std::make_shared<FaultInjectingStore>(std::make_shared<MemoryStore>(1 << 20));
  FaultRule rule;
  rule.kind = FaultKind::kWriteError;
  faulty->AddRule(rule);
  DiskFaultPolicy policy = FastPolicy();
  policy.max_retries = 1;
  TieredCache cache(memory, faulty, policy);

  Status status = cache.PutDisk("ckpt", Bytes({1}));
  EXPECT_FALSE(status.ok()) << "PutDisk must not silently fall back to memory";
  EXPECT_FALSE(memory->Contains("ckpt"));
  EXPECT_FALSE(faulty->backing().Contains("ckpt"));
}

// A cache over memory, a disk tier holding a raw, an encoded and an
// undecodable object, and a peer holding a raw and an undecodable one.
struct ThreeLevelCache {
  static std::vector<uint8_t> Frame(uint8_t value) {
    // Serialized-frame shape (12-byte header + pixels), smooth enough for
    // the lossless codec to shrink it.
    std::vector<uint8_t> bytes(12 + 16 * 16 * 3, value);
    bytes[0] = bytes[4] = 16;
    bytes[8] = 3;
    for (size_t i : {1, 2, 3, 5, 6, 7, 9, 10, 11}) {
      bytes[i] = 0;
    }
    return bytes;
  }
  static std::vector<uint8_t> Undecodable() {
    // A well-formed container header over a garbage payload.
    std::vector<uint8_t> bogus = {'S', 'C', 'O', '1', 1,    0,    0,    0,
                                  200, 0,   0,   0,   0xde, 0xad, 0xbe, 0xef};
    bogus.resize(256, 0xab);
    return bogus;
  }

  ThreeLevelCache() {
    CompressionPolicy policy;
    policy.enabled = true;
    policy.compress_on_disk_put = true;
    policy.min_object_bytes = 64;
    cache.SetCompression(policy);
    EXPECT_TRUE(memory->Put("cache/v/f0/nmem", Frame(1)).ok());
    EXPECT_TRUE(disk->Put("cache/v/f1/nraw", Frame(2)).ok());
    EXPECT_TRUE(cache.Put("cache/v/f2/nenc", Frame(3), Tier::kDisk).ok());
    EXPECT_TRUE(disk->Put("cache/v/f3/nbad", Undecodable()).ok());
    EXPECT_TRUE(peer->Put("cache/v/f4/npeer", Frame(4)).ok());
    EXPECT_TRUE(peer->Put("cache/v/f5/npbad", Undecodable()).ok());
    EXPECT_TRUE(ObjectCodec::IsEncoded(**disk->GetShared("cache/v/f2/nenc")));
    cache.SetPeerStore(peer);
  }

  std::shared_ptr<MemoryStore> memory = std::make_shared<MemoryStore>();
  std::shared_ptr<MemoryStore> disk = std::make_shared<MemoryStore>();
  std::shared_ptr<MemoryStore> peer = std::make_shared<MemoryStore>();
  TieredCache cache{memory, disk};
};

// The registry counters a cache read moves.
std::map<std::string, int64_t> ReadCounters() {
  std::map<std::string, int64_t> values;
  for (const char* name :
       {"sand.cache.memory.hits", "sand.cache.disk.hits", "sand.cache.misses",
        "sand.cache.promotions", "sand.cache.memory.bytes_read", "sand.cache.disk.bytes_read",
        "sand.cluster.peer_hits", "sand.cluster.peer_misses", "sand.cluster.peer_bytes",
        "sand.compress.hits"}) {
    values[name] = obs::Registry::Get().GetCounter(name)->Value();
  }
  return values;
}

std::map<std::string, int64_t> Delta(const std::map<std::string, int64_t>& before,
                                     const std::map<std::string, int64_t>& after) {
  std::map<std::string, int64_t> delta;
  for (const auto& [name, value] : after) {
    delta[name] = value - before.at(name);
  }
  return delta;
}

TEST(TieredCacheTest, GetManySharedReturnsAndCountsWhatPerKeyGetsDo) {
  // Memory, disk (raw and decoded) and peer hits, a miss everywhere, and an
  // undecodable object at the disk and at the peer; the memory key twice.
  const std::vector<std::string> keys = {
      "cache/v/f0/nmem", "cache/v/f1/nraw",  "cache/v/f4/npeer", "cache/v/f9/nabsent",
      "cache/v/f2/nenc", "cache/v/f3/nbad",  "cache/v/f5/npbad", "cache/v/f0/nmem"};
  ThreeLevelCache per_key;
  ThreeLevelCache batched;

  auto before = ReadCounters();
  std::vector<Result<SharedBytes>> expected;
  for (const std::string& key : keys) {
    expected.push_back(per_key.cache.GetShared(key));
  }
  const auto per_key_counts = Delta(before, ReadCounters());

  before = ReadCounters();
  std::vector<Result<SharedBytes>> got = batched.cache.GetManyShared(keys);
  const auto batched_counts = Delta(before, ReadCounters());

  ASSERT_EQ(got.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    SCOPED_TRACE(keys[i]);
    ASSERT_EQ(got[i].status().code(), expected[i].status().code());
    if (expected[i].ok()) {
      EXPECT_EQ(**got[i], **expected[i]);
    }
  }
  EXPECT_EQ(batched_counts, per_key_counts);
  EXPECT_EQ(per_key_counts.at("sand.cache.promotions"), 3) << "disk raw, disk encoded, peer";
  EXPECT_EQ(per_key_counts.at("sand.cluster.peer_hits"), 1);
  EXPECT_EQ(per_key_counts.at("sand.cluster.peer_misses"), 3) << "absent and both undecodable";
  // Same promotions into memory, same undecodable objects dropped.
  EXPECT_EQ(batched.memory->ListKeys(), per_key.memory->ListKeys());
  EXPECT_EQ(batched.disk->ListKeys(), per_key.disk->ListKeys());
  EXPECT_FALSE(batched.disk->Contains("cache/v/f3/nbad"));
  EXPECT_TRUE(batched.cache.GetManyShared({}).empty());
}

}  // namespace
}  // namespace sand
