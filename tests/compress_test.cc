// Unit and property tests for the lossless cache codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "src/common/rng.h"
#include "src/compress/lossless.h"
#include "src/compress/lossy.h"
#include "src/workloads/lossless_corpus.h"

// --- Allocation probe ---------------------------------------------------------
//
// While armed, records the largest single operator-new request and refuses
// any above kAllocationCap, so a decoder that sized a buffer from a hostile
// header fails the test instead of committing gigabytes.

namespace {
constexpr size_t kAllocationCap = size_t{64} << 20;
std::atomic<bool> g_probe_armed{false};
std::atomic<size_t> g_largest_allocation{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(size_t size) {
  if (g_probe_armed.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > seen && !g_largest_allocation.compare_exchange_weak(seen, size)) {
    }
    if (size > kAllocationCap) {
      throw std::bad_alloc();
    }
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sand {
namespace {

std::vector<uint8_t> SmoothRows(size_t rows, size_t stride, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(rows * stride);
  double value = 128;
  for (auto& byte : data) {
    value += (rng.NextDouble() - 0.5) * 6;
    if (value < 0) {
      value = 0;
    }
    if (value > 255) {
      value = 255;
    }
    byte = static_cast<uint8_t>(value);
  }
  return data;
}

TEST(LosslessTest, RoundTripSmooth) {
  auto data = SmoothRows(16, 64, 1);
  auto compressed = LosslessCompress(data, 64);
  ASSERT_TRUE(compressed.ok());
  auto restored = LosslessDecompress(*compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, data);
}

TEST(LosslessTest, CompressesSmoothData) {
  auto data = SmoothRows(64, 128, 2);
  auto compressed = LosslessCompress(data, 128);
  ASSERT_TRUE(compressed.ok());
  EXPECT_LT(compressed->size(), data.size()) << "smooth data must shrink";
}

TEST(LosslessTest, RoundTripConstant) {
  std::vector<uint8_t> data(1024, 42);
  auto compressed = LosslessCompress(data, 32);
  ASSERT_TRUE(compressed.ok());
  EXPECT_LT(compressed->size(), 100u);  // extreme redundancy compresses hard
  auto restored = LosslessDecompress(*compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, data);
}

TEST(LosslessTest, RoundTripRandomNoise) {
  Rng rng(3);
  std::vector<uint8_t> data(2048);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  auto compressed = LosslessCompress(data, 64);
  ASSERT_TRUE(compressed.ok());
  auto restored = LosslessDecompress(*compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, data);
}

TEST(LosslessTest, RejectsBadStride) {
  std::vector<uint8_t> data(100);
  EXPECT_FALSE(LosslessCompress(data, 0).ok());
  EXPECT_FALSE(LosslessCompress(data, 33).ok());  // does not divide 100
}

TEST(LosslessTest, RejectsTruncated) {
  auto data = SmoothRows(8, 32, 4);
  auto compressed = LosslessCompress(data, 32);
  ASSERT_TRUE(compressed.ok());
  std::vector<uint8_t> cut(compressed->begin(), compressed->begin() + 8);
  EXPECT_FALSE(LosslessDecompress(cut).ok());
}

TEST(LosslessTest, RejectsBadMagic) {
  std::vector<uint8_t> junk = {'X', 'X', 'X', 'X', 0, 0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_FALSE(LosslessDecompress(junk).ok());
}

// --- table-driven decoder vs lossless_reference ---------------------------------

// The corpus at the data-path benchmark's geometry (64x96x3, GOP 8): two
// videos of two GOPs, SCO1 bodies, and the hand-built edge streams.
const std::vector<LosslessCorpusEntry>& Corpus() {
  static const std::vector<LosslessCorpusEntry> corpus = [] {
    SyntheticDatasetOptions options;
    options.num_videos = 2;
    options.frames_per_video = 16;
    options.seed = 3;
    auto built = BuildLosslessCorpus(options);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.ValueOr({});
  }();
  return corpus;
}

TEST(LosslessDecoderTest, MatchesReferenceOnCorpus) {
  size_t intra = 0;
  size_t delta = 0;
  for (const LosslessCorpusEntry& entry : Corpus()) {
    auto reference = lossless_reference::LosslessDecompress(entry.stream);
    ASSERT_TRUE(reference.ok()) << entry.name << ": " << reference.status().ToString();
    auto fast = LosslessDecompress(entry.stream);
    ASSERT_TRUE(fast.ok()) << entry.name << ": " << fast.status().ToString();
    EXPECT_EQ(*fast, *reference) << entry.name;
    intra += entry.name.ends_with("/intra");
    delta += entry.name.ends_with("/delta");
  }
  EXPECT_EQ(intra, 4u);
  EXPECT_EQ(delta, 28u);
}

TEST(LosslessDecoderTest, SameOutcomeAsReferenceOnMutations) {
  const auto& corpus = Corpus();
  ASSERT_FALSE(corpus.empty());
  Rng rng(20261017);
  constexpr int kMutations = 10000;
  int decoded_ok = 0;
  for (int m = 0; m < kMutations; ++m) {
    const LosslessCorpusEntry& entry = corpus[rng.NextBounded(corpus.size())];
    std::vector<uint8_t> bytes = entry.stream;
    const uint64_t kind = rng.NextBounded(4);
    if (kind == 0) {
      bytes.resize(rng.NextBounded(bytes.size()));
    } else {
      // 1-3 byte overwrites; half land in the headers and code lengths
      // (the first 146 bytes), where the size fields and tables live.
      for (uint64_t k = 0; k < kind; ++k) {
        const size_t span = rng.NextBounded(2) == 0 ? std::min<size_t>(bytes.size(), 146)
                                                    : bytes.size();
        bytes[rng.NextBounded(span)] = static_cast<uint8_t>(rng.NextBounded(256));
      }
    }
    auto reference = lossless_reference::LosslessDecompress(bytes);
    auto fast = LosslessDecompress(bytes);
    ASSERT_EQ(fast.ok(), reference.ok())
        << entry.name << " mutation " << m << ": fast " << fast.status().ToString()
        << ", reference " << reference.status().ToString();
    if (fast.ok()) {
      ASSERT_EQ(*fast, *reference) << entry.name << " mutation " << m;
      ++decoded_ok;
    } else {
      EXPECT_EQ(fast.status().code(), ErrorCode::kDataLoss) << entry.name;
    }
  }
  // Both outcomes are exercised: some mutations still decode.
  EXPECT_GT(decoded_ok, 0);
  EXPECT_LT(decoded_ok, kMutations);
}

// Overwrites the little-endian u32 at `at`.
void PatchU32(std::vector<uint8_t>& bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// Decodes with the allocation probe armed; returns the largest request.
size_t LargestAllocationDuring(const std::vector<uint8_t>& bytes, Status* status) {
  g_largest_allocation.store(0);
  g_probe_armed.store(true);
  Result<std::vector<uint8_t>> out = LosslessDecompress(bytes);
  g_probe_armed.store(false);
  *status = out.status();
  return g_largest_allocation.load();
}

TEST(LosslessDecoderTest, HugeHeaderSizesFailWithoutAllocating) {
  auto data = SmoothRows(16, 64, 31);
  auto stream = LosslessCompress(data, 64);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ((*stream)[13], 1) << "expected a Huffman entropy block";

  // SLZ1 raw_size claims ~4 GiB (a multiple of the stride, so the header
  // passes its own checks): the LZ bound rejects it.
  std::vector<uint8_t> huge_raw = *stream;
  PatchU32(huge_raw, 4, 0xFFFFFFC0u);
  Status status;
  EXPECT_LT(LargestAllocationDuring(huge_raw, &status), size_t{1} << 20);
  EXPECT_EQ(status.code(), ErrorCode::kDataLoss) << status.ToString();

  // The entropy block's own raw size claims ~4 GiB: the bitstream bound
  // rejects it before any output buffer exists.
  std::vector<uint8_t> huge_entropy = *stream;
  PatchU32(huge_entropy, 14, 0xFFFFFFFFu);
  EXPECT_LT(LargestAllocationDuring(huge_entropy, &status), size_t{1} << 20);
  EXPECT_EQ(status.code(), ErrorCode::kDataLoss) << status.ToString();

  // The untouched stream decodes under the same probe.
  EXPECT_LT(LargestAllocationDuring(*stream, &status), size_t{1} << 20);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FrameCompressTest, RoundTrip) {
  Frame frame(24, 32, 3);
  Rng rng(5);
  double v = 100;
  for (auto& byte : frame.storage()) {
    v += (rng.NextDouble() - 0.5) * 4;
    byte = static_cast<uint8_t>(v);
  }
  auto compressed = CompressFrame(frame);
  ASSERT_TRUE(compressed.ok());
  auto restored = DecompressFrame(*compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, frame);
}

TEST(FrameCompressTest, RejectsEmptyFrame) {
  EXPECT_FALSE(CompressFrame(Frame()).ok());
}

TEST(FrameCompressTest, RejectsShapeThatDisagreesWithPixels) {
  Frame frame(8, 8, 3);
  auto compressed = CompressFrame(frame);
  ASSERT_TRUE(compressed.ok());
  std::vector<uint8_t> taller = *compressed;
  PatchU32(taller, 0, 9);  // height 9: the pixels decode to 8 rows only
  auto restored = DecompressFrame(taller);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), ErrorCode::kDataLoss);
}

TEST(FrameCompressTest, RejectsTruncated) {
  Frame frame(4, 4, 1);
  auto compressed = CompressFrame(frame);
  ASSERT_TRUE(compressed.ok());
  std::vector<uint8_t> cut(compressed->begin(), compressed->begin() + 6);
  EXPECT_FALSE(DecompressFrame(cut).ok());
}

TEST(CompressionStatsTest, Ratio) {
  CompressionStats stats;
  stats.raw_bytes = 1000;
  stats.compressed_bytes = 250;
  EXPECT_DOUBLE_EQ(stats.Ratio(), 4.0);
  // Empty samples are a neutral 1.0, never an "infinite compression" 0.0.
  stats.raw_bytes = 0;
  stats.compressed_bytes = 0;
  EXPECT_DOUBLE_EQ(stats.Ratio(), 1.0);
  stats.raw_bytes = 1000;
  stats.compressed_bytes = 0;
  EXPECT_DOUBLE_EQ(stats.Ratio(), 1.0);
}

// Property sweep: round-trip over a grid of (rows, stride, content seed).
class LosslessSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(LosslessSweepTest, RoundTripExact) {
  auto [rows, stride, seed] = GetParam();
  auto data = SmoothRows(rows, stride, seed);
  auto compressed = LosslessCompress(data, stride);
  ASSERT_TRUE(compressed.ok());
  auto restored = LosslessDecompress(*compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, data);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LosslessSweepTest,
    ::testing::Combine(::testing::Values<size_t>(1, 7, 33),
                       ::testing::Values<size_t>(1, 16, 61, 256),
                       ::testing::Values<uint64_t>(11, 12, 13)));

// --- lossy object codecs (src/compress/lossy.h) ------------------------------

// A serialized frame (12-byte header + interleaved pixels) with smooth,
// nearly-separable content: y/x gradients plus a per-channel offset and a
// touch of noise, which is what low-rank factorization thrives on.
std::vector<uint8_t> SerializedFrame(uint32_t h, uint32_t w, uint32_t c, uint64_t seed) {
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
  size_t at = 12;
  for (uint32_t y = 0; y < h; ++y) {
    for (uint32_t x = 0; x < w; ++x) {
      for (uint32_t ch = 0; ch < c; ++ch) {
        double v = 40.0 + y * 1.1 + x * 0.9 + ch * 15.0 + (rng.NextDouble() - 0.5) * 2.0;
        out[at++] = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
      }
    }
  }
  return out;
}

int MaxAbsError(const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
  EXPECT_EQ(a.size(), b.size());
  int worst = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<int>(a[i]) - static_cast<int>(b[i])));
  }
  return worst;
}

TEST(ClassifyCacheKeyTest, ViewTaxonomy) {
  EXPECT_EQ(ClassifyCacheKey("cache/vid0/f3/n0123456789abcdef"), ObjectClass::kFrame);
  EXPECT_EQ(ClassifyCacheKey("cache/vid0/a3/n0123456789abcdef"), ObjectClass::kAugFrame);
  EXPECT_EQ(ClassifyCacheKey("/train/5/12/view"), ObjectClass::kBatch);
  EXPECT_EQ(ClassifyCacheKey("checkpoint/task0/epoch3"), ObjectClass::kOpaque);
  EXPECT_EQ(ClassifyCacheKey("cache/vid0"), ObjectClass::kFrame);
}

CompressionPolicy PolicyWith(Codec frame_codec) {
  CompressionPolicy policy;
  policy.enabled = true;
  policy.frame_codec = frame_codec;
  policy.aug_codec = frame_codec;
  policy.min_object_bytes = 64;
  return policy;
}

TEST(ObjectCodecTest, LosslessRoundTripBitExact) {
  ObjectCodec codec(PolicyWith(Codec::kLossless));
  const auto raw = SerializedFrame(32, 48, 3, 21);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok());
  ASSERT_TRUE(encoded->has_value());
  EXPECT_EQ((*encoded)->codec, Codec::kLossless);
  EXPECT_LT((*encoded)->bytes.size(), raw.size());
  EXPECT_TRUE(ObjectCodec::IsEncoded((*encoded)->bytes));
  auto decoded = codec.Decode((*encoded)->bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, raw);  // bit-exact
}

TEST(ObjectCodecTest, QuantBoundedError) {
  ObjectCodec codec(PolicyWith(Codec::kQuant8));
  const auto raw = SerializedFrame(32, 48, 3, 22);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok());
  ASSERT_TRUE(encoded->has_value());
  EXPECT_EQ((*encoded)->codec, Codec::kQuant8);
  // 4-bit nibble packing alone halves the payload before the entropy stage.
  EXPECT_LT((*encoded)->bytes.size(), raw.size() / 2);
  auto decoded = codec.Decode((*encoded)->bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), raw.size());
  // Header is reproduced exactly; pixels within half a quantization step
  // (range / 15 levels / 2) plus rounding.
  EXPECT_TRUE(std::equal(raw.begin(), raw.begin() + 12, decoded->begin()));
  EXPECT_LE(MaxAbsError(raw, *decoded), 255 / 15 / 2 + 2);
}

TEST(ObjectCodecTest, QuantFallsBackLosslessOnOpaqueBytes) {
  ObjectCodec codec(PolicyWith(Codec::kQuant8));
  // Frame-classed key but non-frame bytes: must fall back to the exact path.
  const auto raw = SmoothRows(40, 50, 23);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok());
  ASSERT_TRUE(encoded->has_value());
  EXPECT_EQ((*encoded)->codec, Codec::kLossless);
  auto decoded = codec.Decode((*encoded)->bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, raw);
}

TEST(ObjectCodecTest, SvdSelfContainedBoundedError) {
  ObjectCodec codec(PolicyWith(Codec::kSvd));
  const auto raw = SerializedFrame(48, 64, 3, 24);
  auto encoded = codec.Encode("cache/v/a0/nabc", raw);
  ASSERT_TRUE(encoded.ok());
  ASSERT_TRUE(encoded->has_value());
  EXPECT_EQ((*encoded)->codec, Codec::kSvd);
  EXPECT_FALSE((*encoded)->shared_basis);
  // Rank-8 factors of a 48x64x3 frame are ~4x smaller than the pixels.
  EXPECT_LT((*encoded)->bytes.size(), raw.size() / 4);
  auto decoded = codec.Decode((*encoded)->bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), raw.size());
  EXPECT_TRUE(std::equal(raw.begin(), raw.begin() + 12, decoded->begin()));
  // Near-separable content is close to rank-2; rank-8 + int8 factor
  // quantization reconstructs within a tight band.
  EXPECT_LE(MaxAbsError(raw, *decoded), 24);
}

TEST(ObjectCodecTest, SvdSharedBasisAcrossAugmentations) {
  ObjectCodec codec(PolicyWith(Codec::kSvd));
  const auto base = SerializedFrame(48, 64, 3, 25);
  // An "augmentation": same structure, slightly shifted intensities.
  auto aug = base;
  for (size_t i = 12; i < aug.size(); ++i) {
    aug[i] = static_cast<uint8_t>(std::min(255, aug[i] + 4));
  }
  codec.set_base_fetcher([&](const std::string& key) -> Result<SharedBytes> {
    if (key == "cache/v/f7/nbase") {
      return MakeSharedBytes(std::vector<uint8_t>(base));
    }
    return NotFound("no such base: " + key);
  });
  codec.NoteBaseObject("cache/v/a7/naug", "cache/v/f7/nbase");

  auto encoded = codec.Encode("cache/v/a7/naug", aug);
  ASSERT_TRUE(encoded.ok());
  ASSERT_TRUE(encoded->has_value());
  EXPECT_EQ((*encoded)->codec, Codec::kSvd);
  EXPECT_TRUE((*encoded)->shared_basis);

  // Sharing the base's factors drops the stored basis: the shared container
  // must be smaller than the self-contained encoding of the same bytes.
  ObjectCodec self_codec(PolicyWith(Codec::kSvd));
  auto self_encoded = self_codec.Encode("cache/v/a7/naug", aug);
  ASSERT_TRUE(self_encoded.ok() && self_encoded->has_value());
  EXPECT_LT((*encoded)->bytes.size(), (*self_encoded)->bytes.size());

  auto decoded = codec.Decode((*encoded)->bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_LE(MaxAbsError(aug, *decoded), 32);
}

TEST(ObjectCodecTest, SharedBasisDecodeFailsAsMissWhenBaseGone) {
  ObjectCodec codec(PolicyWith(Codec::kSvd));
  const auto base = SerializedFrame(32, 48, 3, 26);
  auto aug = base;
  bool base_available = true;
  codec.set_base_fetcher([&](const std::string&) -> Result<SharedBytes> {
    if (base_available) {
      return MakeSharedBytes(std::vector<uint8_t>(base));
    }
    return NotFound("evicted");
  });
  codec.NoteBaseObject("cache/v/a1/naug", "cache/v/f1/nbase");
  auto encoded = codec.Encode("cache/v/a1/naug", aug);
  ASSERT_TRUE(encoded.ok() && encoded->has_value());
  ASSERT_TRUE((*encoded)->shared_basis);

  // Fresh codec: empty basis cache, base unavailable -> NotFound (a miss),
  // never corrupt bytes.
  ObjectCodec reader(PolicyWith(Codec::kSvd));
  base_available = false;
  reader.set_base_fetcher([&](const std::string&) -> Result<SharedBytes> {
    return NotFound("evicted");
  });
  auto decoded = reader.Decode((*encoded)->bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kNotFound);
}

TEST(ObjectCodecTest, SmallObjectsStoredRaw) {
  CompressionPolicy policy = PolicyWith(Codec::kLossless);
  policy.min_object_bytes = 1024;
  ObjectCodec codec(policy);
  std::vector<uint8_t> raw(100, 7);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok());
  EXPECT_FALSE(encoded->has_value());
}

TEST(ObjectCodecTest, NoneCodecStoresRaw) {
  CompressionPolicy policy = PolicyWith(Codec::kLossless);
  policy.opaque_codec = Codec::kNone;
  ObjectCodec codec(policy);
  const auto raw = SmoothRows(64, 64, 27);
  auto encoded = codec.Encode("checkpoint/task0/epoch1", raw);
  ASSERT_TRUE(encoded.ok());
  EXPECT_FALSE(encoded->has_value());
}

TEST(ObjectCodecTest, DecodeRejectsCorruptContainer) {
  ObjectCodec codec(PolicyWith(Codec::kLossless));
  const auto raw = SerializedFrame(16, 24, 3, 28);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok() && encoded->has_value());
  auto bytes = (*encoded)->bytes;
  bytes[bytes.size() / 2] ^= 0xff;  // corrupt the payload
  EXPECT_FALSE(codec.Decode(bytes).ok());
  // Truncation is also rejected, never UB.
  std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + 20);
  EXPECT_FALSE(codec.Decode(cut).ok());
}

TEST(ObjectCodecTest, EncodeIsIdempotentOnContainers) {
  ObjectCodec codec(PolicyWith(Codec::kLossless));
  const auto raw = SerializedFrame(16, 24, 3, 29);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok() && encoded->has_value());
  // Feeding an already-encoded object back in must not double-wrap it.
  auto again = codec.Encode("cache/v/f0/nabc", (*encoded)->bytes);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->has_value());
}

TEST(ObjectCodecTest, CumulativeRatioTracksEncodes) {
  ObjectCodec codec(PolicyWith(Codec::kQuant8));
  EXPECT_DOUBLE_EQ(codec.CumulativeRatio(), 1.0);
  const auto raw = SerializedFrame(32, 48, 3, 30);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok() && encoded->has_value());
  EXPECT_GT(codec.CumulativeRatio(), 2.0);
}

TEST(CodecNameTest, RoundTrip) {
  for (Codec codec : {Codec::kNone, Codec::kLossless, Codec::kQuant8, Codec::kSvd}) {
    auto parsed = CodecFromName(CodecName(codec));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, codec);
  }
  EXPECT_FALSE(CodecFromName("gzip").has_value());
}

}  // namespace
}  // namespace sand
