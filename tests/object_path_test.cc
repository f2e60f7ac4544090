// Zero-copy object path: copy-on-write Frame buffers, sharded stores,
// atomic PutIfAbsent, and the aliasing invariants between the tiered cache
// and the frames served out of it. The multithreaded cases here are the
// ones tools/check_tsan.sh runs under ThreadSanitizer.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/core/executor.h"
#include "src/storage/object_store.h"
#include "src/tensor/frame.h"
#include "src/tensor/image_ops.h"

namespace sand {
namespace {

Frame PatternFrame(int h, int w, int c, uint8_t salt = 0) {
  Frame frame(h, w, c);
  std::span<uint8_t> data = frame.MutableData();
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + salt);
  }
  return frame;
}

// --- Frame copy-on-write -----------------------------------------------------

TEST(FrameCowTest, CopySharesBufferUntilMutation) {
  Frame a = PatternFrame(8, 6, 3);
  Frame b = a;
  EXPECT_EQ(a.data().data(), b.data().data()) << "copy must alias, not clone";
  EXPECT_EQ(a.buffer_use_count(), 2);

  b.MutableData()[0] = 255;  // first mutation clones
  EXPECT_NE(a.data().data(), b.data().data());
  EXPECT_EQ(a.buffer_use_count(), 1);
  EXPECT_EQ(b.buffer_use_count(), 1);
  EXPECT_EQ(a.data()[0], static_cast<uint8_t>(0));
  EXPECT_EQ(b.data()[0], 255);
}

TEST(FrameCowTest, MutableAccessOnExclusiveFrameDoesNotClone) {
  Frame a = PatternFrame(4, 4, 3);
  const uint8_t* before = a.data().data();
  a.At(1, 2, 0) = 9;
  a.MutableData()[5] = 7;
  EXPECT_EQ(a.data().data(), before) << "sole owner must mutate in place";
}

TEST(FrameCowTest, SerializeRoundTripsThroughSharedView) {
  Frame original = PatternFrame(5, 7, 3);
  SharedBytes bytes = MakeSharedBytes(original.Serialize());
  auto view = Frame::DeserializeShared(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(*view == original);
  // The view aliases the serialized buffer's pixel section (12-byte header).
  EXPECT_EQ(view->data().data(), bytes->data() + 12);
}

TEST(FrameCowTest, MutatingSharedViewNeverWritesCachedBytes) {
  Frame original = PatternFrame(5, 7, 3);
  SharedBytes bytes = MakeSharedBytes(original.Serialize());
  std::vector<uint8_t> snapshot = *bytes;

  auto view = Frame::DeserializeShared(bytes);
  ASSERT_TRUE(view.ok());
  view->MutableData()[0] = static_cast<uint8_t>(view->data()[0] + 1);
  EXPECT_EQ(*bytes, snapshot) << "view mutation must clone, not write through";
  EXPECT_NE(view->data().data(), bytes->data() + 12);
}

TEST(FrameCowTest, InPlaceOpsPreserveTheirInput) {
  Frame input = PatternFrame(6, 6, 3);
  std::vector<uint8_t> snapshot(input.data().begin(), input.data().end());
  Frame bright = AdjustBrightness(input, 40);
  Frame inverted = Invert(input);
  EXPECT_FALSE(bright == input);
  EXPECT_FALSE(inverted == input);
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), input.data().begin()))
      << "ops that mutate their working copy must not touch the input";
}

// --- Cache-hit aliasing ------------------------------------------------------

TEST(CacheAliasingTest, TwoConsumersShareOneCachedBuffer) {
  TieredCache cache(std::make_shared<MemoryStore>(), std::make_shared<MemoryStore>());
  Frame original = PatternFrame(16, 16, 3);
  ASSERT_TRUE(cache.Put("cache/v/frame", original.Serialize(), Tier::kMemory).ok());

  auto hit1 = cache.GetShared("cache/v/frame");
  auto hit2 = cache.GetShared("cache/v/frame");
  ASSERT_TRUE(hit1.ok() && hit2.ok());
  EXPECT_EQ(hit1->get(), hit2->get()) << "memory-tier hits must return one allocation";

  auto frame1 = Frame::DeserializeShared(*hit1);
  auto frame2 = Frame::DeserializeShared(*hit2);
  ASSERT_TRUE(frame1.ok() && frame2.ok());
  EXPECT_EQ(frame1->data().data(), frame2->data().data());

  // Consumer 1 mutates; consumer 2 and the cache stay intact.
  frame1->MutableData()[0] = static_cast<uint8_t>(~frame1->data()[0]);
  EXPECT_TRUE(*frame2 == original);
  auto frame3 = Frame::DeserializeShared(*cache.GetShared("cache/v/frame"));
  ASSERT_TRUE(frame3.ok());
  EXPECT_TRUE(*frame3 == original) << "cached bytes corrupted by a consumer mutation";
}

TEST(CacheAliasingTest, GetSharedPromotesFromDiskTier) {
  auto memory = std::make_shared<MemoryStore>();
  TieredCache cache(memory, std::make_shared<MemoryStore>());
  std::vector<uint8_t> blob(1024, 42);
  ASSERT_TRUE(cache.Put("cold", blob, Tier::kDisk).ok());
  EXPECT_FALSE(memory->Contains("cold"));
  auto hit = cache.GetShared("cold");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(**hit, blob);
  EXPECT_TRUE(memory->Contains("cold")) << "disk hits promote to memory";
  // Promotion adopted the same allocation rather than copying it.
  auto promoted = memory->GetShared("cold");
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted->get(), hit->get());
}

TEST(CacheAliasingTest, PutSharedToMemoryAdoptsTheCallersBuffer) {
  auto memory = std::make_shared<MemoryStore>();
  TieredCache cache(memory, std::make_shared<MemoryStore>());
  SharedBytes buf = MakeSharedBytes(std::vector<uint8_t>(512, 7));
  ASSERT_TRUE(cache.PutShared("adopted", buf, Tier::kMemory).ok());
  auto hit = cache.GetShared("adopted");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->get(), buf.get()) << "a memory-tier PutShared must not copy the payload";
  EXPECT_EQ(memory->UsedBytes(), buf->size());
}

// --- PutIfAbsent -------------------------------------------------------------

TEST(PutIfAbsentTest, ExactlyOneWinnerAcrossThreads) {
  constexpr int kThreads = 8;
  TieredCache cache(std::make_shared<MemoryStore>(), std::make_shared<MemoryStore>());
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &winners, t] {
      std::vector<uint8_t> payload(256, static_cast<uint8_t>(t));
      auto stored = cache.PutIfAbsent("contended", payload, Tier::kMemory);
      if (stored.ok() && *stored) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(winners.load(), 1);
  auto value = cache.GetShared("contended");
  ASSERT_TRUE(value.ok());
  ASSERT_EQ((*value)->size(), 256u);
  // All 256 bytes come from the single winning thread.
  for (uint8_t byte : **value) {
    EXPECT_EQ(byte, (**value)[0]);
  }
}

TEST(PutIfAbsentTest, FallsThroughToDiskWhenMemoryFull) {
  TieredCache cache(std::make_shared<MemoryStore>(/*capacity_bytes=*/64),
                    std::make_shared<MemoryStore>());
  std::vector<uint8_t> big(1000, 1);
  auto stored = cache.PutIfAbsent("big", big, Tier::kMemory);
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(*stored);
  EXPECT_FALSE(cache.memory().Contains("big"));
  EXPECT_TRUE(cache.disk().Contains("big"));
  EXPECT_TRUE(cache.Contains("big"));
}

// --- Multithreaded stress ----------------------------------------------------

TEST(TieredCacheStressTest, ConcurrentPutGetEvictDelete) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  constexpr int kKeySpace = 32;
  TieredCache cache(std::make_shared<MemoryStore>(/*capacity_bytes=*/64 * 1024),
                    std::make_shared<MemoryStore>());
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(t + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        std::string key = "stress/" + std::to_string((rng >> 33) % kKeySpace);
        switch ((rng >> 13) % 6) {
          case 0:
            (void)cache.Put(key, std::vector<uint8_t>(512, static_cast<uint8_t>(t)),
                            (rng & 1) != 0 ? Tier::kMemory : Tier::kDisk);
            break;
          case 1:
            (void)cache.PutIfAbsent(key, std::vector<uint8_t>(512, static_cast<uint8_t>(t)),
                                    Tier::kMemory);
            break;
          case 2: {
            auto bytes = cache.GetShared(key);
            if (bytes.ok()) {
              served.fetch_add(1, std::memory_order_relaxed);
              // Every stored payload is 512 constant bytes: verify we never
              // observe a torn object.
              ASSERT_EQ((*bytes)->size(), 512u);
              ASSERT_EQ((*bytes)->front(), (*bytes)->back());
            }
            break;
          }
          case 3:
            (void)cache.Delete(key);
            break;
          case 4:
            (void)cache.Demote(key);
            break;
          case 5:
            (void)cache.Contains(key);
            break;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_GT(served.load(), 0u);
  // Accounting stayed consistent: usage equals the sum of surviving objects.
  uint64_t expected = 0;
  for (const std::string& key : cache.memory().ListKeys()) {
    expected += *cache.memory().SizeOf(key);
  }
  EXPECT_EQ(cache.MemoryUsedBytes(), expected);
  expected = 0;
  for (const std::string& key : cache.disk().ListKeys()) {
    expected += *cache.disk().SizeOf(key);
  }
  EXPECT_EQ(cache.DiskUsedBytes(), expected);
}

TEST(MemoryStoreStressTest, CapacityRespectedUnderConcurrency) {
  constexpr uint64_t kCapacity = 16 * 1024;
  constexpr int kThreads = 8;
  MemoryStore store(kCapacity);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int op = 0; op < 200; ++op) {
        std::string key = "k" + std::to_string((op * 7 + t) % 64);
        (void)store.Put(key, std::vector<uint8_t>(1024, 1));
        if (op % 3 == 0) {
          (void)store.Delete(key);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_LE(store.UsedBytes(), kCapacity);
  uint64_t expected = 0;
  for (const std::string& key : store.ListKeys()) {
    expected += *store.SizeOf(key);
  }
  EXPECT_EQ(store.UsedBytes(), expected);
}

TEST(CustomOpRegistryTest, ConcurrentRegisterAndLookup) {
  constexpr int kThreads = 8;
  std::atomic<int> registered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registered, t] {
      for (int op = 0; op < 50; ++op) {
        std::string name = "object_path_op_" + std::to_string(op % 10);
        Status status = CustomOpRegistry::Get().Register(
            name, [](const Frame& frame) -> Result<Frame> { return frame; });
        if (status.ok()) {
          registered.fetch_add(1);
        }
        auto fn = CustomOpRegistry::Get().Lookup(name);
        ASSERT_TRUE(fn.ok()) << "a just-registered op must be visible";
        (void)t;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registered.load(), 10) << "each unique name registers exactly once";
}

}  // namespace
}  // namespace sand
