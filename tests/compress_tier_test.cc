// Integration tests for the compressed cache tier (DESIGN.md §11): the
// TieredCache encoding objects on Demote / disk Put and decoding them
// transparently on GetShared, including the Pin-vs-Demote race, async
// demotion on a worker pool, and crash injection proving a mid-compress
// crash never publishes a truncated object.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/worker_pool.h"
#include "src/compress/lossless.h"
#include "src/compress/lossy.h"
#include "src/storage/fault_injection.h"
#include "src/storage/object_store.h"

namespace sand {
namespace {

namespace fs = std::filesystem;

class CompressTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("sand_compress_tier_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::shared_ptr<DiskStore> OpenDisk() {
    auto disk = DiskStore::Open(root_.string(), 1ULL << 30);
    EXPECT_TRUE(disk.ok());
    return std::shared_ptr<DiskStore>(std::move(*disk));
  }

  static CompressionPolicy LosslessEverywhere() {
    CompressionPolicy policy;
    policy.enabled = true;
    policy.compress_on_disk_put = true;
    policy.min_object_bytes = 64;
    return policy;
  }

  // A serialized frame: 12-byte header + smooth interleaved pixels.
  static std::vector<uint8_t> FrameBytes(uint32_t h, uint32_t w, uint32_t c,
                                         uint64_t seed) {
    std::vector<uint8_t> out(12 + static_cast<size_t>(h) * w * c);
    auto put_u32 = [&](size_t at, uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        out[at + i] = static_cast<uint8_t>(v >> (8 * i));
      }
    };
    put_u32(0, h);
    put_u32(4, w);
    put_u32(8, c);
    Rng rng(seed);
    for (size_t i = 12; i < out.size(); ++i) {
      out[i] = static_cast<uint8_t>(
          std::clamp(60.0 + (i % 97) + (rng.NextDouble() - 0.5) * 4.0, 0.0, 255.0));
    }
    return out;
  }

  fs::path root_;
};

TEST_F(CompressTierTest, DiskPutEncodesAndGetDecodesBitExact) {
  auto memory = std::make_shared<MemoryStore>();
  auto disk = OpenDisk();
  TieredCache cache(memory, disk);
  cache.SetCompression(LosslessEverywhere());

  const auto raw = FrameBytes(32, 48, 3, 1);
  const std::string key = "cache/vid/f0/n1234";
  ASSERT_TRUE(cache.Put(key, raw, Tier::kDisk).ok());

  // The disk tier holds a compressed container, smaller than the object...
  auto stored = disk->GetShared(key);
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(ObjectCodec::IsEncoded(std::span<const uint8_t>(**stored)));
  EXPECT_LT((*stored)->size(), raw.size());

  // ...but readers see the exact original bytes.
  auto got = cache.GetShared(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, raw);

  // The decoded bytes were promoted raw, so the next (memory) hit is
  // zero-copy with no decode.
  auto hot = memory->GetShared(key);
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(**hot, raw);
}

TEST_F(CompressTierTest, DemoteCompressesInline) {
  auto memory = std::make_shared<MemoryStore>();
  auto disk = OpenDisk();
  TieredCache cache(memory, disk);
  cache.SetCompression(LosslessEverywhere());  // no pool: inline demote

  const auto raw = FrameBytes(32, 48, 3, 2);
  const std::string key = "cache/vid/f1/n5678";
  ASSERT_TRUE(cache.Put(key, raw, Tier::kMemory).ok());
  ASSERT_TRUE(cache.Demote(key).ok());

  EXPECT_FALSE(memory->Contains(key));
  auto stored = disk->GetShared(key);
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(ObjectCodec::IsEncoded(std::span<const uint8_t>(**stored)));

  auto got = cache.GetShared(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, raw);
}

TEST_F(CompressTierTest, AsyncDemoteOnWorkerPool) {
  auto memory = std::make_shared<MemoryStore>();
  auto disk = OpenDisk();
  TieredCache cache(memory, disk);
  WorkerPool::Options pool_options;
  pool_options.num_threads = 2;
  WorkerPool pool(pool_options);
  cache.SetCompression(LosslessEverywhere(), &pool);

  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    const auto raw = FrameBytes(32, 48, 3, 100 + i);
    keys.push_back("cache/vid/f" + std::to_string(i) + "/nasync");
    ASSERT_TRUE(cache.Put(keys.back(), raw, Tier::kMemory).ok());
    // Returns as soon as the encode+spill is enqueued.
    ASSERT_TRUE(cache.Demote(keys.back()).ok());
  }
  pool.WaitIdle();

  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(memory->Contains(keys[i])) << keys[i];
    auto stored = disk->GetShared(keys[i]);
    ASSERT_TRUE(stored.ok());
    EXPECT_TRUE(ObjectCodec::IsEncoded(std::span<const uint8_t>(**stored)));
    auto got = cache.GetShared(keys[i]);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(**got, FrameBytes(32, 48, 3, 100 + i));
  }
  cache.SetCompressionPool(nullptr);
}

TEST_F(CompressTierTest, MidCompressCrashNeverPublishesTruncatedObject) {
  auto memory = std::make_shared<MemoryStore>();
  auto disk = OpenDisk();
  auto faulty = std::make_shared<FaultInjectingStore>(disk);
  // Every demote-spill write "crashes" after writing the temp file but
  // before the atomic rename — the power-cut-mid-compress state.
  FaultRule rule;
  rule.kind = FaultKind::kCrashBeforeRename;
  rule.key_substring = "ncrash";
  faulty->AddRule(rule);

  DiskFaultPolicy fault_policy;
  fault_policy.max_retries = 0;  // every attempt is a fresh crash anyway
  TieredCache cache(memory, faulty, fault_policy);
  cache.SetCompression(LosslessEverywhere());

  const auto raw = FrameBytes(32, 48, 3, 4);
  const std::string key = "cache/vid/f3/ncrash";
  ASSERT_TRUE(cache.Put(key, raw, Tier::kMemory).ok());
  EXPECT_FALSE(cache.Demote(key).ok());
  EXPECT_GE(faulty->stats().crashes, 1u);

  // The object survives in memory and reads back exactly.
  auto got = cache.GetShared(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, raw);

  // Nothing truncated became visible on disk, and recovery (Rescan) sweeps
  // the abandoned temp file without surfacing a corrupt object.
  EXPECT_FALSE(disk->Contains(key));
  ASSERT_TRUE(disk->Rescan().ok());
  EXPECT_FALSE(disk->Contains(key));
  auto after = cache.GetShared(key);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(**after, raw);

  // Once the fault clears, the same demote completes and round-trips.
  faulty->ClearRules();
  ASSERT_TRUE(cache.Demote(key).ok());
  auto final = cache.GetShared(key);
  ASSERT_TRUE(final.ok());
  EXPECT_EQ(**final, raw);
}

TEST_F(CompressTierTest, UndecodableObjectReadsAsMissNotError) {
  auto memory = std::make_shared<MemoryStore>();
  auto disk = OpenDisk();
  TieredCache cache(memory, disk);
  cache.SetCompression(LosslessEverywhere());

  // Plant a well-formed container header with garbage payload directly in
  // the disk tier (as if the codec version changed under a live cache).
  std::vector<uint8_t> bogus = {'S', 'C', 'O', '1', 1,   0, 0, 0,
                                200, 0,   0,   0,   0xde, 0xad, 0xbe, 0xef};
  bogus.resize(256, 0xab);
  const std::string key = "cache/vid/f5/nbogus";
  ASSERT_TRUE(disk->Put(key, bogus).ok());

  auto got = cache.GetShared(key);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);  // a miss, not DataLoss
  EXPECT_FALSE(cache.Contains(key));                     // and the entry is gone
}

void PutLe(std::vector<uint8_t>& out, uint32_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

// An SCO1 header for codec id `codec` over a `raw_size`-byte object.
std::vector<uint8_t> Sco1Header(uint8_t codec, uint8_t flags, uint32_t raw_size,
                                uint32_t raw_crc) {
  std::vector<uint8_t> out = {'S', 'C', 'O', '1', codec, flags, 0, 0};
  PutLe(out, raw_size, 4);
  PutLe(out, raw_crc, 4);
  return out;
}

// Codec id 3 (retired svd) with the shared-basis flag, naming `key` itself
// as its basis object: a decoder that fetched that key through the cache
// would recurse without end.
std::vector<uint8_t> SelfBasisSvdObject(const std::string& key) {
  std::vector<uint8_t> out = Sco1Header(3, 0x01, 12 + 1, 0);
  PutLe(out, 1, 1);  // rank
  PutLe(out, 1, 1);  // channels
  PutLe(out, 1, 2);  // h
  PutLe(out, 1, 2);  // w
  PutLe(out, 0, 2);  // reserved
  PutLe(out, 0, 4);  // channel mean (f32 0.0)
  PutLe(out, static_cast<uint32_t>(key.size()), 2);
  out.insert(out.end(), key.begin(), key.end());
  return out;
}

// Codec id 2 (retired quant8), well formed: 8-bit codes with scale 1 and
// zero point 0, so the retired decoder reproduced `frame` exactly.
std::vector<uint8_t> IdentityQuantObject(const std::vector<uint8_t>& frame) {
  const std::span<const uint8_t> pixels = std::span(frame).subspan(12);
  std::vector<uint8_t> out =
      Sco1Header(2, 0, static_cast<uint32_t>(frame.size()), Crc32(frame));
  PutLe(out, 8, 1);   // bits
  PutLe(out, 1, 1);   // channels
  PutLe(out, 12, 2);  // prefix_len
  PutLe(out, static_cast<uint32_t>(pixels.size()), 4);
  out.insert(out.end(), frame.begin(), frame.begin() + 12);
  PutLe(out, 0x3f800000u, 4);  // scale f32 1.0
  PutLe(out, 0, 4);            // zero f32 0.0
  auto codes = LosslessCompress(pixels, pixels.size());
  EXPECT_TRUE(codes.ok());
  if (codes.ok()) {
    out.insert(out.end(), codes->begin(), codes->end());
  }
  return out;
}

TEST_F(CompressTierTest, RetiredCodecObjectsReadAsMissFromDiskAndPeer) {
  CompressionPolicy policy;
  policy.enabled = true;  // reads decode; puts store what they are given
  const std::vector<uint8_t> frame = FrameBytes(8, 8, 1, 9);
  for (const bool from_peer : {false, true}) {
    auto memory = std::make_shared<MemoryStore>();
    auto disk = OpenDisk();
    auto peer = std::make_shared<MemoryStore>();
    TieredCache cache(memory, disk);
    cache.SetCompression(policy);
    cache.SetPeerStore(peer);
    const std::string where = from_peer ? "peer" : "disk";
    const std::string svd_key = "cache/vid/f9/nsvd_" + where;
    const std::string quant_key = "cache/vid/f9/nquant_" + where;
    ObjectStore& holder = from_peer ? static_cast<ObjectStore&>(*peer) : *disk;
    ASSERT_TRUE(holder.Put(svd_key, SelfBasisSvdObject(svd_key)).ok());
    ASSERT_TRUE(holder.Put(quant_key, IdentityQuantObject(frame)).ok());

    for (const std::string& key : {svd_key, quant_key}) {
      auto got = cache.GetShared(key);
      ASSERT_FALSE(got.ok()) << key;
      EXPECT_EQ(got.status().code(), ErrorCode::kNotFound) << key;
      EXPECT_FALSE(memory->Contains(key)) << key;
      EXPECT_FALSE(disk->Contains(key)) << key;
    }
  }
}

TEST_F(CompressTierTest, OfflineDiskParksTheEncodedFormForEveryPutVerb) {
  auto memory = std::make_shared<MemoryStore>();
  auto faulty = std::make_shared<FaultInjectingStore>(OpenDisk());
  FaultRule rule;
  rule.kind = FaultKind::kWriteError;  // persistent: the disk tier is dead
  faulty->AddRule(rule);
  DiskFaultPolicy fault_policy;
  fault_policy.max_retries = 0;
  fault_policy.offline_threshold = 1;
  fault_policy.reprobe_interval = FromSeconds(60);  // stays down for the test
  TieredCache cache(memory, faulty, fault_policy);
  cache.SetCompression(LosslessEverywhere());

  // One put per verb, all disk-destined; each degrades into memory, where
  // the encoded form (not the raw bytes) is parked.
  const auto raw = FrameBytes(32, 48, 3, 7);
  ASSERT_TRUE(cache.Put("cache/vid/f7/nput", raw, Tier::kDisk).ok());
  EXPECT_TRUE(cache.disk_degraded());
  ASSERT_TRUE(cache.PutShared("cache/vid/f7/nshared", MakeSharedBytes(raw), Tier::kDisk).ok());
  auto inserted = cache.PutIfAbsent("cache/vid/f7/nabsent", raw, Tier::kDisk);
  ASSERT_TRUE(inserted.ok());
  EXPECT_TRUE(*inserted);

  for (const std::string key :
       {"cache/vid/f7/nput", "cache/vid/f7/nshared", "cache/vid/f7/nabsent"}) {
    auto parked = memory->GetShared(key);
    ASSERT_TRUE(parked.ok()) << key;
    EXPECT_TRUE(ObjectCodec::IsEncoded(std::span<const uint8_t>(**parked))) << key;
    EXPECT_LT((*parked)->size(), raw.size()) << key;
    EXPECT_FALSE(faulty->backing().Contains(key)) << key;
    // Readers still see the exact original bytes.
    auto got = cache.GetShared(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(**got, raw) << key;
  }
}

TEST_F(CompressTierTest, CompressionDisabledIsByteTransparent) {
  auto memory = std::make_shared<MemoryStore>();
  auto disk = OpenDisk();
  TieredCache cache(memory, disk);  // no SetCompression

  const auto raw = FrameBytes(16, 16, 3, 6);
  const std::string key = "cache/vid/f6/nplain";
  ASSERT_TRUE(cache.Put(key, raw, Tier::kDisk).ok());
  auto stored = disk->GetShared(key);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(**stored, raw);  // stored verbatim
  EXPECT_FALSE(cache.compression_enabled());
}

}  // namespace
}  // namespace sand
