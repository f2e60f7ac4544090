// Unit and property tests for the lossless cache codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "src/common/rng.h"
#include "src/compress/lossless.h"
#include "src/compress/lossy.h"
#include "src/workloads/lossless_corpus.h"
#include "tests/allocation_probe.h"

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

// The encoder's ratio on what production writes: the videos' intra and
// delta payloads together, and the SLZ1 bodies of SCO1 cache objects. Both
// read about 1.7x when the encoder wrote every match of 3 bytes or more.
TEST(LosslessTest, DatasetStreamsCompressAtLeast2_5x) {
  CompressionStats payloads;
  CompressionStats sco1;
  for (const LosslessCorpusEntry& entry : Corpus()) {
    const bool payload = entry.name.ends_with("/intra") || entry.name.ends_with("/delta");
    if (!payload && !entry.name.starts_with("sco1/lossless/")) {
      continue;
    }
    auto decoded = LosslessDecompress(entry.stream);
    ASSERT_TRUE(decoded.ok()) << entry.name << ": " << decoded.status().ToString();
    CompressionStats& stats = payload ? payloads : sco1;
    stats.raw_bytes += decoded->size();
    stats.compressed_bytes += entry.stream.size();
  }
  ASSERT_GT(payloads.raw_bytes, 0u);
  ASSERT_GT(sco1.raw_bytes, 0u);
  EXPECT_GE(payloads.Ratio(), 2.5);
  EXPECT_GE(sco1.Ratio(), 2.5);
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

// FNV-1a 64 over each entry's name, its length as a u64 LE, then its
// stream, in order. Pins the corpus bytes, which include the SLZ1 bodies
// the cache's encoder writes for serialized frames.
TEST(LosslessDecoderTest, CorpusMatchesRecordedDigest) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  auto mix = [&digest](std::span<const uint8_t> bytes) {
    for (uint8_t byte : bytes) {
      digest = (digest ^ byte) * 0x100000001b3ULL;
    }
  };
  for (const LosslessCorpusEntry& entry : Corpus()) {
    mix(std::span(reinterpret_cast<const uint8_t*>(entry.name.data()), entry.name.size()));
    std::array<uint8_t, 8> length{};
    for (size_t i = 0; i < length.size(); ++i) {
      length[i] = static_cast<uint8_t>(static_cast<uint64_t>(entry.stream.size()) >> (8 * i));
    }
    mix(length);
    mix(entry.stream);
  }
  EXPECT_EQ(Corpus().size(), 63u);
  EXPECT_EQ(digest, 0x3f53a747ca21c5f1ULL);
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

// --- the SCO1 object codec (src/compress/lossy.h) ----------------------------

// A serialized frame (12-byte header + interleaved pixels) with smooth
// content: y/x gradients plus a per-channel offset and a touch of noise.
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

CompressionPolicy Enabled() {
  CompressionPolicy policy;
  policy.enabled = true;
  policy.min_object_bytes = 64;
  return policy;
}

TEST(ObjectCodecTest, LosslessRoundTripBitExact) {
  ObjectCodec codec(Enabled());
  const auto raw = SerializedFrame(32, 48, 3, 21);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok());
  ASSERT_TRUE(encoded->has_value());
  EXPECT_LT((*encoded)->size(), raw.size());
  EXPECT_TRUE(ObjectCodec::IsEncoded(**encoded));
  auto decoded = codec.Decode(**encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, raw);  // bit-exact
}

TEST(ObjectCodecTest, NonFrameBytesRoundTripBitExact) {
  ObjectCodec codec(Enabled());
  // A cache key holding bytes that are not a serialized frame: encoded as
  // one row, still exact.
  const auto raw = SmoothRows(40, 50, 23);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok());
  ASSERT_TRUE(encoded->has_value());
  auto decoded = codec.Decode(**encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, raw);
}

TEST(ObjectCodecTest, SmallObjectsStoredRaw) {
  CompressionPolicy policy = Enabled();
  policy.min_object_bytes = 1024;
  ObjectCodec codec(policy);
  std::vector<uint8_t> raw(100, 7);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok());
  EXPECT_FALSE(encoded->has_value());
}

TEST(ObjectCodecTest, KeysOutsideCacheStoredRaw) {
  ObjectCodec codec(Enabled());
  const auto raw = SmoothRows(64, 64, 27);
  // Checkpoints, batch views and user objects stay raw; only "cache/"
  // keys are encoded.
  for (const char* key : {"checkpoint/task0/epoch1", "/train/5/12/view", "user/blob", "cach"}) {
    auto encoded = codec.Encode(key, raw);
    ASSERT_TRUE(encoded.ok()) << key;
    EXPECT_FALSE(encoded->has_value()) << key;
  }
  auto cached = codec.Encode("cache/vid0", raw);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->has_value());
}

TEST(ObjectCodecTest, IncompressibleObjectCountsFallback) {
  ObjectCodec codec(Enabled());
  obs::Counter* fallbacks = obs::Registry::Get().GetCounter("sand.compress.fallbacks");
  Rng rng(32);
  std::vector<uint8_t> noise(4096);
  for (auto& byte : noise) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  const uint64_t before = fallbacks->Value();
  auto encoded = codec.Encode("cache/v/f0/nnoise", noise);
  ASSERT_TRUE(encoded.ok());
  EXPECT_FALSE(encoded->has_value());  // did not shrink: stored raw
  EXPECT_EQ(fallbacks->Value(), before + 1);
  EXPECT_DOUBLE_EQ(codec.CumulativeRatio(), 1.0);
}

TEST(ObjectCodecTest, DecodeRejectsCorruptContainer) {
  ObjectCodec codec(Enabled());
  const auto raw = SerializedFrame(16, 24, 3, 28);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok() && encoded->has_value());
  auto bytes = **encoded;
  bytes[bytes.size() / 2] ^= 0xff;  // corrupt the payload
  EXPECT_FALSE(codec.Decode(bytes).ok());
  // Truncation is also rejected, never UB.
  std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + 20);
  EXPECT_FALSE(codec.Decode(cut).ok());
}

TEST(ObjectCodecTest, RetiredCodecIdsStayContainersThatFailDataLoss) {
  ObjectCodec codec(Enabled());
  const auto raw = SerializedFrame(16, 24, 3, 33);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok() && encoded->has_value());
  for (uint8_t id : {2, 3}) {
    std::vector<uint8_t> bytes = **encoded;
    bytes[4] = id;  // the header's codec byte
    // Still a container, so a cache never serves it as raw frame bytes...
    EXPECT_TRUE(ObjectCodec::IsEncoded(bytes)) << int{id};
    // ...and one that no longer decodes.
    auto decoded = codec.Decode(bytes);
    ASSERT_FALSE(decoded.ok()) << int{id};
    EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss) << int{id};
  }
  std::vector<uint8_t> unknown = **encoded;
  unknown[4] = 4;
  EXPECT_FALSE(ObjectCodec::IsEncoded(unknown));
}

TEST(ObjectCodecTest, EncodeIsIdempotentOnContainers) {
  ObjectCodec codec(Enabled());
  const auto raw = SerializedFrame(16, 24, 3, 29);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok() && encoded->has_value());
  // Feeding an already-encoded object back in must not double-wrap it.
  auto again = codec.Encode("cache/v/f0/nabc", **encoded);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->has_value());
}

TEST(ObjectCodecTest, CumulativeRatioTracksEncodes) {
  ObjectCodec codec(Enabled());
  EXPECT_DOUBLE_EQ(codec.CumulativeRatio(), 1.0);
  const auto raw = SerializedFrame(32, 48, 3, 30);
  auto encoded = codec.Encode("cache/v/f0/nabc", raw);
  ASSERT_TRUE(encoded.ok() && encoded->has_value());
  EXPECT_DOUBLE_EQ(codec.CumulativeRatio(), static_cast<double>(raw.size()) /
                                                static_cast<double>((*encoded)->size()));
  EXPECT_GT(codec.CumulativeRatio(), 1.0);
}

}  // namespace
}  // namespace sand
