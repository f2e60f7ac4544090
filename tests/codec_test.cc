// Unit and property tests for the GOP video codec.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/codec/video_codec.h"
#include "src/common/rng.h"
#include "src/common/worker_pool.h"
#include "src/compress/lossless.h"
#include "src/obs/metrics.h"

namespace sand {
namespace {

// Smooth synthetic motion: base gradient shifting over time plus noise.
Frame MotionFrame(int64_t t, int h, int w, int c, uint64_t seed) {
  Frame frame(h, w, c);
  Rng rng(seed ^ static_cast<uint64_t>(t * 2654435761ULL));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int ch = 0; ch < c; ++ch) {
        int v = (x * 3 + y * 2 + static_cast<int>(t) * 4 + ch * 9) % 256;
        // Sparse sensor noise: real video noise is spatially correlated, so
        // per-pixel white noise would be unrealistically incompressible.
        if (x % 4 == 0 && y % 4 == 0) {
          v += static_cast<int>(rng.NextBounded(3));
        }
        frame.At(y, x, ch) = static_cast<uint8_t>(v % 256);
      }
    }
  }
  return frame;
}

std::vector<uint8_t> EncodeVideo(int frames, int gop, int h = 16, int w = 24, int c = 3,
                                 uint64_t seed = 1) {
  VideoEncoderOptions options;
  options.gop_size = gop;
  VideoEncoder encoder(h, w, c, options);
  for (int64_t t = 0; t < frames; ++t) {
    EXPECT_TRUE(encoder.AddFrame(MotionFrame(t, h, w, c, seed)).ok());
  }
  auto container = encoder.Finish();
  EXPECT_TRUE(container.ok());
  return container.TakeValue();
}

TEST(EncoderTest, RejectsShapeMismatch) {
  VideoEncoder encoder(8, 8, 3);
  EXPECT_FALSE(encoder.AddFrame(Frame(8, 9, 3)).ok());
  EXPECT_FALSE(encoder.AddFrame(Frame(8, 8, 1)).ok());
}

TEST(EncoderTest, RejectsEmptyFinish) {
  VideoEncoder encoder(8, 8, 3);
  EXPECT_FALSE(encoder.Finish().ok());
}

TEST(EncoderTest, RejectsUseAfterFinish) {
  VideoEncoder encoder(8, 8, 3);
  ASSERT_TRUE(encoder.AddFrame(Frame(8, 8, 3)).ok());
  ASSERT_TRUE(encoder.Finish().ok());
  EXPECT_FALSE(encoder.AddFrame(Frame(8, 8, 3)).ok());
  EXPECT_FALSE(encoder.Finish().ok());
}

TEST(DecoderTest, HeaderFieldsMatch) {
  auto container = EncodeVideo(20, 5, 16, 24, 3);
  auto decoder = VideoDecoder::Open(std::move(container));
  ASSERT_TRUE(decoder.ok());
  EXPECT_EQ(decoder->height(), 16);
  EXPECT_EQ(decoder->width(), 24);
  EXPECT_EQ(decoder->channels(), 3);
  EXPECT_EQ(decoder->gop_size(), 5);
  EXPECT_EQ(decoder->frame_count(), 20);
}

TEST(DecoderTest, SequentialDecodeIsLossless) {
  auto container = EncodeVideo(24, 8);
  auto decoder = VideoDecoder::Open(std::move(container));
  ASSERT_TRUE(decoder.ok());
  for (int64_t t = 0; t < 24; ++t) {
    auto frame = decoder->DecodeFrame(t);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(*frame, MotionFrame(t, 16, 24, 3, 1)) << "frame " << t;
  }
}

TEST(DecoderTest, RandomAccessMatchesSequential) {
  auto container = EncodeVideo(32, 8);
  auto sequential = VideoDecoder::Open(container);
  auto random = VideoDecoder::Open(container);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(random.ok());
  std::vector<Frame> reference;
  for (int64_t t = 0; t < 32; ++t) {
    reference.push_back(*sequential->DecodeFrame(t));
  }
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    int64_t t = static_cast<int64_t>(rng.NextBounded(32));
    auto frame = random->DecodeFrame(t);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(*frame, reference[static_cast<size_t>(t)]);
  }
}

TEST(DecoderTest, GopStartFindsIntra) {
  auto container = EncodeVideo(20, 6);
  auto decoder = VideoDecoder::Open(std::move(container));
  ASSERT_TRUE(decoder.ok());
  EXPECT_EQ(*decoder->GopStart(0), 0);
  EXPECT_EQ(*decoder->GopStart(5), 0);
  EXPECT_EQ(*decoder->GopStart(6), 6);
  EXPECT_EQ(*decoder->GopStart(11), 6);
  EXPECT_EQ(*decoder->GopStart(19), 18);
  EXPECT_FALSE(decoder->GopStart(20).ok());
  EXPECT_FALSE(decoder->GopStart(-1).ok());
}

TEST(DecoderTest, DecodeAmplificationFromSparseAccess) {
  auto container = EncodeVideo(32, 8);
  auto decoder = VideoDecoder::Open(std::move(container));
  ASSERT_TRUE(decoder.ok());
  // Requesting the last frame of each GOP forces decoding the whole GOP.
  for (int64_t t : {7, 15, 23, 31}) {
    ASSERT_TRUE(decoder->DecodeFrame(t).ok());
  }
  const DecodeStats& stats = decoder->stats();
  EXPECT_EQ(stats.frames_requested, 4u);
  EXPECT_EQ(stats.frames_decoded, 32u);  // 4 GOPs x 8 frames
  EXPECT_DOUBLE_EQ(stats.Amplification(), 8.0);
}

TEST(DecoderTest, ForwardCursorAvoidsRestart) {
  auto container = EncodeVideo(16, 8);
  auto decoder = VideoDecoder::Open(std::move(container));
  ASSERT_TRUE(decoder.ok());
  ASSERT_TRUE(decoder->DecodeFrame(2).ok());  // decodes 0,1,2
  ASSERT_TRUE(decoder->DecodeFrame(5).ok());  // continues 3,4,5
  EXPECT_EQ(decoder->stats().frames_decoded, 6u);
  EXPECT_EQ(decoder->stats().seeks, 1u);
  ASSERT_TRUE(decoder->DecodeFrame(1).ok());  // backwards: restart at 0
  EXPECT_EQ(decoder->stats().seeks, 2u);
}

TEST(DecoderTest, RepeatRequestIsFree) {
  auto container = EncodeVideo(8, 4);
  auto decoder = VideoDecoder::Open(std::move(container));
  ASSERT_TRUE(decoder.ok());
  ASSERT_TRUE(decoder->DecodeFrame(3).ok());
  uint64_t decoded = decoder->stats().frames_decoded;
  ASSERT_TRUE(decoder->DecodeFrame(3).ok());
  EXPECT_EQ(decoder->stats().frames_decoded, decoded);
}

TEST(DecoderTest, DecodeFramesPreservesRequestOrder) {
  auto container = EncodeVideo(24, 8);
  auto decoder = VideoDecoder::Open(container);
  ASSERT_TRUE(decoder.ok());
  std::vector<int64_t> indices = {20, 3, 11, 3};
  auto frames = decoder->DecodeFrames(indices);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 4u);
  auto reference = VideoDecoder::Open(container);
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ((*frames)[i], *reference->DecodeFrame(indices[i])) << "slot " << i;
  }
}

TEST(DecoderTest, RejectsCorruptContainer) {
  EXPECT_FALSE(VideoDecoder::Open({1, 2, 3}).ok());
  auto container = EncodeVideo(8, 4);
  container.resize(container.size() / 2);
  EXPECT_FALSE(VideoDecoder::Open(std::move(container)).ok());
}

// An SVC1 container (layout in video_codec.h) around hand-made payloads.
using RawFrames = std::vector<std::pair<FrameType, std::vector<uint8_t>>>;
std::vector<uint8_t> RawContainer(int h, int w, int c, int gop, const RawFrames& frames) {
  std::vector<uint8_t> out = {'S', 'V', 'C', '1'};
  auto put = [&out](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put(1, 2);  // version
  put(static_cast<uint64_t>(w), 2);
  put(static_cast<uint64_t>(h), 2);
  put(static_cast<uint64_t>(c), 1);
  put(static_cast<uint64_t>(gop), 1);
  put(frames.size(), 4);
  uint64_t offset = 0;
  for (const auto& [type, payload] : frames) {
    put(static_cast<uint64_t>(type), 1);
    put(offset, 8);
    put(payload.size(), 4);
    offset += payload.size();
  }
  for (const auto& frame : frames) {
    out.insert(out.end(), frame.second.begin(), frame.second.end());
  }
  return out;
}

// A valid SLZ1 stream that decodes to `size` bytes of `value`.
std::vector<uint8_t> FilledPayload(size_t size, size_t stride, uint8_t value) {
  return LosslessCompress(std::vector<uint8_t>(size, value), stride).TakeValue();
}

TEST(DecoderTest, RejectsIntraPayloadOfWrongSize) {
  constexpr int h = 8, w = 12, c = 3;
  constexpr size_t stride = w * c;
  // A well-formed lossless stream one row short of a frame: it must not
  // become a Frame whose buffer is smaller than its shape.
  auto container = RawContainer(
      h, w, c, 4, {{FrameType::kIntra, FilledPayload((h - 1) * stride, stride, 7)}});
  auto decoder = VideoDecoder::Open(container);
  ASSERT_TRUE(decoder.ok()) << decoder.status().ToString();
  auto frame = decoder->DecodeFrame(0);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kDataLoss) << frame.status().ToString();
  const std::vector<int64_t> first = {0};
  auto slice = decoder->SliceDecoder().DecodeSlice(0, first);
  ASSERT_FALSE(slice.ok());
  EXPECT_EQ(slice.status().code(), ErrorCode::kDataLoss);
}

TEST(DecoderTest, RejectsDeltaPayloadOneByteShort) {
  constexpr int h = 8, w = 12, c = 3;
  constexpr size_t frame_bytes = h * w * c;
  // The delta apply reads one byte per pixel; a short delta must fail
  // before it, not read past the decoded buffer.
  auto container = RawContainer(h, w, c, 4,
                                {{FrameType::kIntra, FilledPayload(frame_bytes, w * c, 9)},
                                 {FrameType::kDelta, FilledPayload(frame_bytes - 1, 1, 1)}});
  auto decoder = VideoDecoder::Open(container);
  ASSERT_TRUE(decoder.ok()) << decoder.status().ToString();
  ASSERT_TRUE(decoder->DecodeFrame(0).ok());
  auto frame = decoder->DecodeFrame(1);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kDataLoss) << frame.status().ToString();
  const std::vector<int64_t> both = {0, 1};
  auto slice = decoder->SliceDecoder().DecodeSlice(0, both);
  ASSERT_FALSE(slice.ok());
  EXPECT_EQ(slice.status().code(), ErrorCode::kDataLoss);
}

TEST(DecoderTest, RejectsContainerStartingWithDelta) {
  // Seeking walks back to the preceding I-frame; with none at frame 0 the
  // walk would index before the start of the frame table.
  constexpr int h = 4, w = 4, c = 1;
  auto container = RawContainer(h, w, c, 4,
                                {{FrameType::kDelta, FilledPayload(h * w * c, w * c, 0)},
                                 {FrameType::kIntra, FilledPayload(h * w * c, w * c, 5)}});
  auto decoder = VideoDecoder::Open(container);
  ASSERT_FALSE(decoder.ok());
  EXPECT_EQ(decoder.status().code(), ErrorCode::kDataLoss);
}

// Seeded mutations of a whole SVC1 container: header fields, index entries,
// payload bytes and truncation. Every decode either fails with a Status or
// yields frames of exactly height x width x channels bytes (the ASan suite
// runs this too, so an out-of-range read fails it as well).
TEST(ContainerMutationTest, DecodersReturnStatusOrWholeFrames) {
  constexpr int kFrames = 12;
  const std::vector<uint8_t> container = EncodeVideo(kFrames, 4, 8, 12, 3, 5);
  constexpr size_t kHeader = 16;
  constexpr size_t kIndex = kFrames * 13;
  ASSERT_GT(container.size(), kHeader + kIndex);
  Rng rng(20261019);
  constexpr int kMutations = 3000;
  int opened = 0;
  int decoded = 0;
  for (int m = 0; m < kMutations; ++m) {
    std::vector<uint8_t> bytes = container;
    const uint64_t kind = rng.NextBounded(4);
    if (kind == 0) {
      bytes.resize(rng.NextBounded(bytes.size()));
    } else {
      // 1-3 byte overwrites in the header, the index or the payload.
      const size_t begin = kind == 1 ? 0 : kind == 2 ? kHeader : kHeader + kIndex;
      const size_t end = kind == 1 ? kHeader : kind == 2 ? kHeader + kIndex : bytes.size();
      for (uint64_t k = 0, n = 1 + rng.NextBounded(3); k < n; ++k) {
        bytes[begin + rng.NextBounded(end - begin)] = static_cast<uint8_t>(rng.NextBounded(256));
      }
    }
    auto decoder = VideoDecoder::Open(std::move(bytes));
    if (!decoder.ok()) {
      continue;
    }
    ++opened;
    const size_t frame_bytes =
        static_cast<size_t>(decoder->height()) * decoder->width() * decoder->channels();
    auto check = [&](const std::vector<Frame>& frames) {
      for (const Frame& frame : frames) {
        ASSERT_EQ(frame.size_bytes(), frame_bytes) << "mutation " << m;
        ASSERT_EQ(frame.height(), decoder->height()) << "mutation " << m;
        ASSERT_EQ(frame.width(), decoder->width()) << "mutation " << m;
        ASSERT_EQ(frame.channels(), decoder->channels()) << "mutation " << m;
      }
    };
    std::vector<int64_t> all(static_cast<size_t>(decoder->frame_count()));
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<int64_t>(i);
    }
    auto frames = decoder->DecodeFrames(all);
    if (frames.ok()) {
      ASSERT_EQ(frames->size(), all.size());
      check(*frames);
      ++decoded;
    }
    // Each GOP once more through a slice decoder, from its I-frame to its end.
    const GopDecoder slices = decoder->SliceDecoder();
    for (int64_t start = 0; start < decoder->frame_count();) {
      int64_t end = start + 1;
      while (end < decoder->frame_count() && slices.GopStart(end).ValueOr(-1) == start) {
        ++end;
      }
      const std::vector<int64_t> gop(all.begin() + start, all.begin() + end);
      auto slice = slices.DecodeSlice(start, gop);
      if (slice.ok()) {
        ASSERT_EQ(slice->size(), gop.size());
        check(*slice);
      }
      start = end;
    }
  }
  // Both outcomes are exercised: many mutants open, and some still decode.
  EXPECT_GT(opened, kMutations / 4);
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kMutations);
}

// A P-frame is built in a fresh buffer (the delta plus the cursor), never
// in the cursor's: frames handed out earlier share that buffer and must
// keep their pixels, through DecodeFrame and through a slice decode.
TEST(DecoderTest, ReturnedFramesSurviveLaterDeltas) {
  constexpr int kFrames = 8;
  auto container = EncodeVideo(kFrames, kFrames, 16, 24, 3, 7);
  auto decoder = VideoDecoder::Open(container);
  ASSERT_TRUE(decoder.ok());
  std::vector<Frame> returned;
  for (int64_t t = 0; t < kFrames; ++t) {
    auto frame = decoder->DecodeFrame(t);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    returned.push_back(*frame);
  }
  std::vector<int64_t> all(kFrames);
  for (int64_t t = 0; t < kFrames; ++t) {
    all[static_cast<size_t>(t)] = t;
  }
  auto slice = decoder->SliceDecoder().DecodeSlice(0, all);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  for (int64_t t = 0; t < kFrames; ++t) {
    const Frame expected = MotionFrame(t, 16, 24, 3, 7);
    EXPECT_EQ(returned[static_cast<size_t>(t)], expected) << "DecodeFrame " << t;
    EXPECT_EQ((*slice)[static_cast<size_t>(t)], expected) << "DecodeSlice " << t;
  }
}

TEST(DecoderTest, CompressionIsEffective) {
  auto container = EncodeVideo(32, 8, 32, 48, 3);
  size_t raw = 32u * 32 * 48 * 3;
  EXPECT_LT(container.size(), raw / 2) << "temporal+spatial prediction must pay off";
}

TEST(DecoderTest, AllIntraGopOne) {
  auto container = EncodeVideo(8, 1);
  auto decoder = VideoDecoder::Open(std::move(container));
  ASSERT_TRUE(decoder.ok());
  ASSERT_TRUE(decoder->DecodeFrame(7).ok());
  EXPECT_EQ(decoder->stats().frames_decoded, 1u);  // random access is free
}

// Property sweep: lossless round-trip across GOP sizes and frame counts,
// including GOP boundaries and non-multiple frame counts.
class CodecSweepTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CodecSweepTest, LosslessEverywhere) {
  auto [frames, gop] = GetParam();
  auto container = EncodeVideo(frames, gop, 8, 12, 3, 99);
  auto decoder = VideoDecoder::Open(std::move(container));
  ASSERT_TRUE(decoder.ok());
  for (int64_t t = frames - 1; t >= 0; --t) {  // worst-case backwards order
    auto frame = decoder->DecodeFrame(t);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(*frame, MotionFrame(t, 8, 12, 3, 99)) << "frame " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, CodecSweepTest,
                         ::testing::Combine(::testing::Values(1, 5, 16, 17),
                                            ::testing::Values(1, 4, 8, 32)));

TEST(EncoderTest, RejectsOversizeGop) {
  // The container header stores the GOP size as a u8; 300 used to be
  // silently truncated to 44, corrupting every decode downstream.
  VideoEncoderOptions options;
  options.gop_size = 300;
  VideoEncoder encoder(8, 8, 3, options);
  Status add = encoder.AddFrame(Frame(8, 8, 3));
  EXPECT_EQ(add.code(), ErrorCode::kInvalidArgument) << add.ToString();
  auto finish = encoder.Finish();
  EXPECT_EQ(finish.status().code(), ErrorCode::kInvalidArgument);
}

TEST(EncoderTest, AcceptsMaxGop) {
  VideoEncoderOptions options;
  options.gop_size = 255;
  VideoEncoder encoder(4, 4, 1, options);
  ASSERT_TRUE(encoder.AddFrame(Frame(4, 4, 1)).ok());
  auto container = encoder.Finish();
  ASSERT_TRUE(container.ok());
  auto decoder = VideoDecoder::Open(container.TakeValue());
  ASSERT_TRUE(decoder.ok());
  EXPECT_EQ(decoder->gop_size(), 255);
}

TEST(GopDecoderTest, SliceMatchesSerialIncludingTailGop) {
  // 22 frames at GOP 8: the last run (16..21) is an uneven tail.
  auto container = EncodeVideo(22, 8);
  auto serial = VideoDecoder::Open(container);
  ASSERT_TRUE(serial.ok());
  auto slices = GopDecoder::Open(MakeSharedBytes(EncodeVideo(22, 8)));
  ASSERT_TRUE(slices.ok());
  for (int64_t gop_start : {0, 8, 16}) {
    int64_t end = std::min<int64_t>(gop_start + 8, 22);
    std::vector<int64_t> indices;
    for (int64_t t = gop_start; t < end; ++t) {
      indices.push_back(t);
    }
    auto frames = slices->DecodeSlice(gop_start, indices);
    ASSERT_TRUE(frames.ok()) << frames.status().ToString();
    ASSERT_EQ(frames->size(), indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ((*frames)[i], *serial->DecodeFrame(indices[i])) << "frame " << indices[i];
    }
  }
}

TEST(GopDecoderTest, SliceAllowsDuplicatesAndSparseIndices) {
  auto container = EncodeVideo(16, 8);
  auto decoder = VideoDecoder::Open(container);
  ASSERT_TRUE(decoder.ok());
  GopDecoder slices = decoder->SliceDecoder();
  std::vector<int64_t> indices = {9, 9, 12, 15, 15, 15};
  auto frames = slices.DecodeSlice(8, indices);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 6u);
  auto reference = VideoDecoder::Open(container);
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ((*frames)[i], *reference->DecodeFrame(indices[i]));
  }
}

TEST(GopDecoderTest, SliceRejectsBadInputs) {
  auto decoder = VideoDecoder::Open(EncodeVideo(24, 8));
  ASSERT_TRUE(decoder.ok());
  GopDecoder slices = decoder->SliceDecoder();
  std::vector<int64_t> cross_gop = {9, 17};  // 17 is in the next GOP
  EXPECT_FALSE(slices.DecodeSlice(8, cross_gop).ok());
  std::vector<int64_t> descending = {12, 9};
  EXPECT_FALSE(slices.DecodeSlice(8, descending).ok());
  std::vector<int64_t> before_start = {5};
  EXPECT_FALSE(slices.DecodeSlice(8, before_start).ok());
  std::vector<int64_t> out_of_range = {99};
  EXPECT_FALSE(slices.DecodeSlice(8, out_of_range).ok());
  std::vector<int64_t> ok_but_bad_start = {9};
  EXPECT_FALSE(slices.DecodeSlice(9, ok_but_bad_start).ok())
      << "slice start must be an I-frame";
}

TEST(GopDecoderTest, SharedStatsAccountLikeColdSerialWalk) {
  auto container = EncodeVideo(24, 8);
  auto serial = VideoDecoder::Open(container);
  auto sliced = VideoDecoder::Open(container);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(sliced.ok());
  // Same requests through both paths, both decoders cold.
  std::vector<int64_t> sorted = {2, 5, 10, 13, 21};
  for (int64_t t : sorted) {
    ASSERT_TRUE(serial->DecodeFrame(t).ok());
  }
  GopDecoder slices = sliced->SliceDecoder();
  ASSERT_TRUE(slices.DecodeSlice(0, std::vector<int64_t>{2, 5}).ok());
  ASSERT_TRUE(slices.DecodeSlice(8, std::vector<int64_t>{10, 13}).ok());
  ASSERT_TRUE(slices.DecodeSlice(16, std::vector<int64_t>{21}).ok());
  DecodeStats a = serial->stats();
  DecodeStats b = sliced->stats();  // slice decoders share the owner's counters
  EXPECT_EQ(a.frames_requested, b.frames_requested);
  EXPECT_EQ(a.frames_decoded, b.frames_decoded);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.seeks, b.seeks);
}

TEST(GopDecoderTest, SliceRecordsOneLatencySamplePerDistinctIndex) {
  auto container = EncodeVideo(16, 8);
  obs::Histogram* latency = obs::Registry::Get().GetHistogram("sand.decode.frame_latency_ns");
  auto serial = VideoDecoder::Open(container);
  auto sliced = VideoDecoder::Open(container);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(sliced.ok());
  // A cold serial walk over three distinct indices records three samples...
  uint64_t before = latency->Count();
  for (int64_t t : {9, 12, 15}) {
    ASSERT_TRUE(serial->DecodeFrame(t).ok());
  }
  const uint64_t serial_samples = latency->Count() - before;
  EXPECT_EQ(serial_samples, 3u);
  // ...and one slice pass over the same frames, duplicates included, as many.
  before = latency->Count();
  std::vector<int64_t> indices = {9, 9, 12, 15, 15};
  ASSERT_TRUE(sliced->SliceDecoder().DecodeSlice(8, indices).ok());
  EXPECT_EQ(latency->Count() - before, serial_samples);
}

TEST(ParallelDecodeTest, MatchesSerialOnRandomizedIndexSets) {
  const int kFrames = 61;  // uneven tail GOP
  auto container = EncodeVideo(kFrames, 8, 8, 12, 3, 5);
  WorkerPool pool(WorkerPool::Options{4, 64});
  Rng rng(1234);
  for (int round = 0; round < 20; ++round) {
    // Random size, random order, duplicates likely.
    size_t n = 1 + rng.NextBounded(24);
    std::vector<int64_t> indices;
    for (size_t i = 0; i < n; ++i) {
      indices.push_back(static_cast<int64_t>(rng.NextBounded(kFrames)));
    }
    auto serial = VideoDecoder::Open(container);
    auto parallel = VideoDecoder::Open(container);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    auto want = serial->DecodeFrames(indices);
    auto got = parallel->DecodeFrames(indices, &pool);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(want->size(), got->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*want)[i], (*got)[i]) << "round " << round << " slot " << i;
    }
    // Both paths started from a cold cursor, so the accounting must agree
    // on all four counters, not just amplification.
    DecodeStats a = serial->stats();
    DecodeStats b = parallel->stats();
    EXPECT_EQ(a.frames_requested, b.frames_requested) << "round " << round;
    EXPECT_EQ(a.frames_decoded, b.frames_decoded) << "round " << round;
    EXPECT_EQ(a.bytes_read, b.bytes_read) << "round " << round;
    EXPECT_EQ(a.seeks, b.seeks) << "round " << round;
  }
  pool.Shutdown();
}

TEST(ParallelDecodeTest, SaturatedPoolFallsBackInline) {
  auto container = EncodeVideo(64, 4);
  auto decoder = VideoDecoder::Open(container);
  ASSERT_TRUE(decoder.ok());
  // A pool with no queue capacity refuses every slice: all 16 GOPs must
  // still decode (inline on the caller) and match the serial result.
  WorkerPool pool(WorkerPool::Options{1, 0});
  std::vector<int64_t> indices;
  for (int64_t t = 0; t < 64; t += 3) {
    indices.push_back(t);
  }
  auto got = decoder->DecodeFrames(indices, &pool);
  ASSERT_TRUE(got.ok());
  auto reference = VideoDecoder::Open(container);
  auto want = reference->DecodeFrames(indices);
  ASSERT_TRUE(want.ok());
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ((*want)[i], (*got)[i]);
  }
  pool.Shutdown();
}

TEST(ParallelDecodeTest, NullPoolAndEmptyIndices) {
  auto decoder = VideoDecoder::Open(EncodeVideo(8, 4));
  ASSERT_TRUE(decoder.ok());
  std::vector<int64_t> indices = {7, 1};
  auto frames = decoder->DecodeFrames(indices, nullptr);
  ASSERT_TRUE(frames.ok());
  EXPECT_EQ(frames->size(), 2u);
  WorkerPool pool(WorkerPool::Options{2, 8});
  auto empty = decoder->DecodeFrames(std::vector<int64_t>{}, &pool);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  std::vector<int64_t> bad = {-1};
  EXPECT_FALSE(decoder->DecodeFrames(bad, &pool).ok());
  pool.Shutdown();
}

}  // namespace
}  // namespace sand
