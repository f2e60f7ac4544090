// Unit tests for src/tensor: Frame and augmentation ops.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/tensor/frame.h"
#include "src/tensor/image_ops.h"
#include "src/tensor/pixel_kernels.h"

namespace sand {
namespace {

Frame MakeGradient(int h, int w, int c) {
  Frame frame(h, w, c);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int ch = 0; ch < c; ++ch) {
        frame.At(y, x, ch) = static_cast<uint8_t>((y * 7 + x * 3 + ch * 11) % 256);
      }
    }
  }
  return frame;
}

TEST(FrameTest, ShapeAndIndexing) {
  Frame frame(4, 6, 3);
  EXPECT_EQ(frame.height(), 4);
  EXPECT_EQ(frame.width(), 6);
  EXPECT_EQ(frame.channels(), 3);
  EXPECT_EQ(frame.size_bytes(), 4u * 6 * 3);
  frame.At(2, 5, 1) = 200;
  EXPECT_EQ(frame.At(2, 5, 1), 200);
}

TEST(FrameTest, MeanIntensity) {
  Frame frame(2, 2, 1);
  frame.At(0, 0, 0) = 0;
  frame.At(0, 1, 0) = 100;
  frame.At(1, 0, 0) = 100;
  frame.At(1, 1, 0) = 200;
  EXPECT_DOUBLE_EQ(frame.MeanIntensity(), 100.0);
  EXPECT_DOUBLE_EQ(Frame().MeanIntensity(), 0.0);
}

TEST(FrameTest, SerializeRoundTrip) {
  Frame frame = MakeGradient(5, 7, 3);
  auto bytes = frame.Serialize();
  auto restored = Frame::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, frame);
}

TEST(FrameTest, FromPixelsChecksSize) {
  auto frame = Frame::FromPixels(2, 3, 3, std::vector<uint8_t>(18, 4));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->size_bytes(), 18u);
  EXPECT_EQ(frame->At(1, 2, 2), 4);
  EXPECT_TRUE(Frame::FromPixels(0, 0, 0, {}).ok());
  for (size_t size : {size_t{17}, size_t{19}, size_t{0}}) {
    auto bad = Frame::FromPixels(2, 3, 3, std::vector<uint8_t>(size));
    ASSERT_FALSE(bad.ok()) << size;
    EXPECT_EQ(bad.status().code(), ErrorCode::kDataLoss);
  }
  EXPECT_FALSE(Frame::FromPixels(-2, -3, 3, std::vector<uint8_t>(18)).ok());
  // A shape whose byte count wraps size_t must not match a small buffer.
  EXPECT_FALSE(Frame::FromPixels(1 << 30, 1 << 30, 16, std::vector<uint8_t>(0)).ok());
}

TEST(FrameTest, DeserializeRejectsCorrupt) {
  Frame frame = MakeGradient(3, 3, 1);
  auto bytes = frame.Serialize();
  bytes.pop_back();
  EXPECT_FALSE(Frame::Deserialize(bytes).ok());
  EXPECT_FALSE(Frame::Deserialize(std::vector<uint8_t>{1, 2, 3}).ok());
}

TEST(ResizeTest, OutputShape) {
  Frame in = MakeGradient(8, 12, 3);
  auto out = Resize(in, 4, 6);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->height(), 4);
  EXPECT_EQ(out->width(), 6);
  EXPECT_EQ(out->channels(), 3);
}

TEST(ResizeTest, IdentityKeepsPixels) {
  Frame in = MakeGradient(6, 6, 2);
  auto nearest = Resize(in, 6, 6, Interpolation::kNearest);
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ(*nearest, in);
}

TEST(ResizeTest, BilinearPreservesConstant) {
  Frame in(5, 5, 1);
  for (auto& v : in.storage()) {
    v = 77;
  }
  auto out = Resize(in, 9, 3);
  ASSERT_TRUE(out.ok());
  for (uint8_t v : out->data()) {
    EXPECT_EQ(v, 77);
  }
}

TEST(ResizeTest, RejectsBadArgs) {
  EXPECT_FALSE(Resize(Frame(), 4, 4).ok());
  EXPECT_FALSE(Resize(MakeGradient(4, 4, 1), 0, 4).ok());
  EXPECT_FALSE(Resize(MakeGradient(4, 4, 1), 4, -1).ok());
}

TEST(CropTest, ExtractsRegion) {
  Frame in = MakeGradient(8, 8, 1);
  auto out = Crop(in, 2, 3, 4, 5);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->height(), 4);
  EXPECT_EQ(out->width(), 5);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 5; ++x) {
      EXPECT_EQ(out->At(y, x, 0), in.At(y + 2, x + 3, 0));
    }
  }
}

TEST(CropTest, RejectsOutOfBounds) {
  Frame in = MakeGradient(8, 8, 1);
  EXPECT_FALSE(Crop(in, 6, 0, 4, 4).ok());
  EXPECT_FALSE(Crop(in, -1, 0, 4, 4).ok());
  EXPECT_FALSE(Crop(in, 0, 0, 0, 4).ok());
}

TEST(CropTest, CenterCropCentered) {
  Frame in = MakeGradient(10, 10, 1);
  auto out = CenterCrop(in, 4, 4);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At(0, 0, 0), in.At(3, 3, 0));
}

TEST(FlipTest, DoubleFlipIsIdentity) {
  Frame in = MakeGradient(5, 9, 3);
  EXPECT_EQ(FlipHorizontal(FlipHorizontal(in)), in);
}

TEST(FlipTest, MirrorsColumns) {
  Frame in = MakeGradient(2, 4, 1);
  Frame out = FlipHorizontal(in);
  EXPECT_EQ(out.At(0, 0, 0), in.At(0, 3, 0));
  EXPECT_EQ(out.At(1, 3, 0), in.At(1, 0, 0));
}

TEST(RotateTest, QuadrupleRotateIsIdentity) {
  Frame in = MakeGradient(4, 7, 2);
  Frame out = Rotate90(Rotate90(Rotate90(Rotate90(in))));
  EXPECT_EQ(out, in);
}

TEST(RotateTest, SwapsDimensions) {
  Frame in = MakeGradient(4, 7, 2);
  Frame out = Rotate90(in);
  EXPECT_EQ(out.height(), 7);
  EXPECT_EQ(out.width(), 4);
}

TEST(BrightnessTest, SaturatesAtBounds) {
  Frame in(1, 2, 1);
  in.At(0, 0, 0) = 250;
  in.At(0, 1, 0) = 5;
  Frame brighter = AdjustBrightness(in, 20);
  EXPECT_EQ(brighter.At(0, 0, 0), 255);
  Frame darker = AdjustBrightness(in, -20);
  EXPECT_EQ(darker.At(0, 1, 0), 0);
}

TEST(ContrastTest, UnitFactorIsIdentity) {
  Frame in = MakeGradient(4, 4, 3);
  EXPECT_EQ(AdjustContrast(in, 1.0), in);
}

TEST(ContrastTest, ZeroFactorFlattensToMean) {
  Frame in = MakeGradient(4, 4, 1);
  Frame out = AdjustContrast(in, 0.0);
  double mean = in.MeanIntensity();
  for (uint8_t v : out.data()) {
    EXPECT_NEAR(v, mean, 1.0);
  }
}

TEST(ColorJitterTest, DeterministicGivenRng) {
  Frame in = MakeGradient(6, 6, 3);
  Rng rng1(42);
  Rng rng2(42);
  EXPECT_EQ(ColorJitter(in, rng1, 20, 0.2), ColorJitter(in, rng2, 20, 0.2));
}

TEST(BoxBlurTest, PreservesConstant) {
  Frame in(6, 6, 1);
  for (auto& v : in.storage()) {
    v = 90;
  }
  auto out = BoxBlur(in, 3);
  ASSERT_TRUE(out.ok());
  for (uint8_t v : out->data()) {
    EXPECT_EQ(v, 90);
  }
}

TEST(BoxBlurTest, RejectsEvenKernel) {
  Frame in = MakeGradient(6, 6, 1);
  EXPECT_FALSE(BoxBlur(in, 2).ok());
  EXPECT_FALSE(BoxBlur(in, 0).ok());
}

TEST(BoxBlurTest, KernelOneIsIdentity) {
  Frame in = MakeGradient(6, 6, 1);
  auto out = BoxBlur(in, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(InvertTest, DoubleInvertIsIdentity) {
  Frame in = MakeGradient(4, 4, 3);
  EXPECT_EQ(Invert(Invert(in)), in);
}

TEST(ChannelMeansTest, ComputesPerChannel) {
  Frame in(2, 2, 2);
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 2; ++x) {
      in.At(y, x, 0) = 10;
      in.At(y, x, 1) = 30;
    }
  }
  auto means = ChannelMeans(in);
  EXPECT_DOUBLE_EQ(means[0], 10.0);
  EXPECT_DOUBLE_EQ(means[1], 30.0);
}

TEST(StackBatchTest, ConcatenatesClips) {
  Clip a;
  a.frames = {MakeGradient(2, 2, 1), MakeGradient(2, 2, 1)};
  Clip b = a;
  auto bytes = StackBatch({a, b});
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), 4u * 2 * 2);
}

TEST(StackBatchTest, RejectsMismatch) {
  Clip a;
  a.frames = {MakeGradient(2, 2, 1)};
  Clip b;
  b.frames = {MakeGradient(2, 3, 1)};
  EXPECT_FALSE(StackBatch({a, b}).ok());
  Clip c;
  c.frames = {MakeGradient(2, 2, 1), MakeGradient(2, 2, 1)};
  EXPECT_FALSE(StackBatch({a, c}).ok());
  EXPECT_FALSE(StackBatch({}).ok());
}

// Parameterized sweep: resize round-trips through many shapes without
// crashing and always matches the requested geometry.
class ResizeSweepTest : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ResizeSweepTest, ShapeMatches) {
  auto [in_h, in_w, out_h, out_w] = GetParam();
  Frame in = MakeGradient(in_h, in_w, 3);
  for (Interpolation interp : {Interpolation::kNearest, Interpolation::kBilinear}) {
    auto out = Resize(in, out_h, out_w, interp);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->height(), out_h);
    EXPECT_EQ(out->width(), out_w);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ResizeSweepTest,
                         ::testing::Values(std::make_tuple(8, 8, 4, 4),
                                           std::make_tuple(7, 13, 13, 7),
                                           std::make_tuple(1, 1, 5, 5),
                                           std::make_tuple(32, 16, 8, 24),
                                           std::make_tuple(3, 5, 1, 1)));


// ---------------------------------------------------------------------------
// Golden kernel tests: every kernel in pixel_kernels.cc (and the separable
// BoxBlur) is pinned byte-for-byte against the retained scalar reference,
// across edge shapes: 1x1, odd widths, r >= image size, 1-pixel resize
// targets, and seeded random geometry.

Frame NoisyFrame(int h, int w, int c, uint64_t seed) {
  Frame frame(h, w, c);
  Rng rng(seed);
  for (uint8_t& v : frame.MutableData()) {
    v = static_cast<uint8_t>(rng.NextBounded(256));
  }
  return frame;
}

struct KernelShape {
  int h, w, c;
};
class KernelGoldenTest : public ::testing::TestWithParam<KernelShape> {};

TEST_P(KernelGoldenTest, DeltaEncodeAndApplyMatchReference) {
  auto [h, w, c] = GetParam();
  Frame cur = NoisyFrame(h, w, c, 11);
  Frame prev = NoisyFrame(h, w, c, 22);
  std::vector<uint8_t> fast(cur.size_bytes()), ref(cur.size_bytes());
  DeltaEncodeBytes(cur.data(), prev.data(), fast);
  pixel_reference::DeltaEncodeBytes(cur.data(), prev.data(), ref);
  EXPECT_EQ(fast, ref);

  // Applying the delta onto prev must reconstruct cur on both paths.
  std::vector<uint8_t> fast_target(prev.data().begin(), prev.data().end());
  std::vector<uint8_t> ref_target = fast_target;
  DeltaApplyBytes(fast_target, fast);
  pixel_reference::DeltaApplyBytes(ref_target, ref);
  EXPECT_EQ(fast_target, ref_target);
  EXPECT_TRUE(std::equal(fast_target.begin(), fast_target.end(), cur.data().begin()));
}

TEST_P(KernelGoldenTest, MergeAverageMatchesReference) {
  auto [h, w, c] = GetParam();
  std::vector<Frame> frames;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    frames.push_back(NoisyFrame(h, w, c, seed * 31));
  }
  std::vector<std::span<const uint8_t>> inputs;
  for (const Frame& f : frames) {
    inputs.push_back(f.data());
  }
  std::vector<uint8_t> fast(frames[0].size_bytes()), ref(frames[0].size_bytes());
  MergeAverage(inputs, fast);
  pixel_reference::MergeAverage(inputs, ref);
  EXPECT_EQ(fast, ref);
}

TEST_P(KernelGoldenTest, PointOpLutsMatchReference) {
  auto [h, w, c] = GetParam();
  Frame in = NoisyFrame(h, w, c, 77);
  for (int delta : {-300, -40, 0, 40, 300}) {
    Frame fast = AdjustBrightness(in, delta);
    for (size_t i = 0; i < in.size_bytes(); ++i) {
      ASSERT_EQ(fast.data()[i], pixel_reference::Brightness(in.data()[i], delta))
          << "delta " << delta << " byte " << i;
    }
  }
  for (double factor : {0.0, 0.5, 1.0, 1.7, 3.0}) {
    Frame fast = AdjustContrast(in, factor);
    double mean = in.MeanIntensity();
    for (size_t i = 0; i < in.size_bytes(); ++i) {
      ASSERT_EQ(fast.data()[i], pixel_reference::Contrast(in.data()[i], mean, factor))
          << "factor " << factor << " byte " << i;
    }
  }
  Frame inverted = Invert(in);
  for (size_t i = 0; i < in.size_bytes(); ++i) {
    ASSERT_EQ(inverted.data()[i], pixel_reference::Invert(in.data()[i]));
  }
}

TEST_P(KernelGoldenTest, SeparableBlurMatchesReference) {
  auto [h, w, c] = GetParam();
  Frame in = NoisyFrame(h, w, c, 99);
  // Kernels up to well past the image size: the r >= image case exercises
  // fully clamped windows on every pixel.
  for (int k : {1, 3, 5, 9, 2 * std::max(h, w) + 1}) {
    auto fast = BoxBlur(in, k);
    auto ref = BoxBlurReference(in, k);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(*fast, *ref) << "k=" << k << " shape " << h << "x" << w << "x" << c;
  }
}

// Both interpolations against their references at edge targets: 1-pixel
// sides, identity, 2x up, ~half down, and one side up while the other
// shrinks. KernelGoldenSeededTest covers random geometry.
TEST_P(KernelGoldenTest, ResizeMatchesReference) {
  auto [h, w, c] = GetParam();
  Frame in = NoisyFrame(h, w, c, 55);
  const std::vector<std::pair<int, int>> targets = {
      {1, 1}, {1, w}, {h, 1}, {h, w}, {2 * h, 2 * w}, {std::max(1, h / 2), std::max(1, w / 2)},
      {h + 1, std::max(1, w - 1)}};
  for (auto [out_h, out_w] : targets) {
    auto bilinear = Resize(in, out_h, out_w, Interpolation::kBilinear);
    auto nearest = Resize(in, out_h, out_w, Interpolation::kNearest);
    ASSERT_TRUE(bilinear.ok());
    ASSERT_TRUE(nearest.ok());
    EXPECT_EQ(*bilinear, pixel_reference::ResizeBilinear(in, out_h, out_w))
        << h << "x" << w << "x" << c << " -> " << out_h << "x" << out_w;
    EXPECT_EQ(*nearest, pixel_reference::ResizeNearest(in, out_h, out_w))
        << h << "x" << w << "x" << c << " -> " << out_h << "x" << out_w;
  }
}

TEST_P(KernelGoldenTest, FlipAndRotateMatchReference) {
  auto [h, w, c] = GetParam();
  Frame in = NoisyFrame(h, w, c, 66);
  EXPECT_EQ(FlipHorizontal(in), pixel_reference::FlipHorizontal(in));
  Frame rotated = Rotate90(in);
  EXPECT_EQ(rotated, pixel_reference::Rotate90(in));
  EXPECT_EQ(rotated.height(), w);
  EXPECT_EQ(rotated.width(), h);
}

INSTANTIATE_TEST_SUITE_P(EdgeShapes, KernelGoldenTest,
                         ::testing::Values(KernelShape{1, 1, 1}, KernelShape{1, 1, 3},
                                           KernelShape{5, 7, 3}, KernelShape{3, 1, 2},
                                           KernelShape{16, 17, 1}, KernelShape{9, 13, 4},
                                           KernelShape{32, 24, 3}));

// Seeded random geometry: inputs up to 70x70 with 1-5 channels (5 takes
// the kernels' runtime-channel-count path), upscaling and downscaling to
// targets up to 100x100, each case against the references.
TEST(KernelGoldenSeededTest, ResizeFlipRotateMatchReferenceOnRandomShapes) {
  Rng rng(20261017);
  for (int i = 0; i < 400; ++i) {
    const int h = static_cast<int>(rng.NextInRange(1, 70));
    const int w = static_cast<int>(rng.NextInRange(1, 70));
    const int c = static_cast<int>(rng.NextInRange(1, 5));
    const int out_h = static_cast<int>(rng.NextInRange(1, 100));
    const int out_w = static_cast<int>(rng.NextInRange(1, 100));
    Frame in = NoisyFrame(h, w, c, rng.Next());
    SCOPED_TRACE(::testing::Message() << "case " << i << ": " << h << "x" << w << "x" << c
                                      << " -> " << out_h << "x" << out_w);
    ASSERT_EQ(*Resize(in, out_h, out_w), pixel_reference::ResizeBilinear(in, out_h, out_w));
    ASSERT_EQ(*Resize(in, out_h, out_w, Interpolation::kNearest),
              pixel_reference::ResizeNearest(in, out_h, out_w));
    ASSERT_EQ(FlipHorizontal(in), pixel_reference::FlipHorizontal(in));
    ASSERT_EQ(Rotate90(in), pixel_reference::Rotate90(in));
  }
}

// Cached views are shared by key across builds and cluster nodes, so the
// bytes must not depend on compile flags. The digest below was recorded
// from Resize/FlipHorizontal/Rotate90/AdjustContrast as they stood before
// the geometric kernels (per-pixel loops, default build); tools/
// check_build.sh also runs this test in a SAND_NATIVE_ARCH=ON tree, where
// an FMA-contracted build of pixel_kernels.cc produces a different digest.
TEST(KernelGoldenSeededTest, OutputBytesMatchRecordedDigest) {
  Rng rng(20261017);
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a 64
  auto mix = [&digest](const Frame& frame) {
    for (uint8_t b : frame.data()) {
      digest = (digest ^ b) * 1099511628211ULL;
    }
  };
  for (int i = 0; i < 300; ++i) {
    const int h = static_cast<int>(rng.NextInRange(1, 70));
    const int w = static_cast<int>(rng.NextInRange(1, 70));
    const int c = static_cast<int>(rng.NextInRange(1, 5));
    const int out_h = static_cast<int>(rng.NextInRange(1, 100));
    const int out_w = static_cast<int>(rng.NextInRange(1, 100));
    Frame in(h, w, c);
    for (uint8_t& v : in.MutableData()) {
      v = static_cast<uint8_t>(rng.NextBounded(256));
    }
    mix(*Resize(in, out_h, out_w));
    mix(*Resize(in, out_h, out_w, Interpolation::kNearest));
    mix(FlipHorizontal(in));
    mix(Rotate90(in));
    mix(AdjustContrast(in, 0.5 + rng.NextDouble()));
  }
  EXPECT_EQ(digest, 0xbb7431545799a755ULL);
}

// The kernels read a cache-resident view in place: resizing, flipping and
// rotating a DeserializeShared frame must leave the cached bytes untouched
// and must not clone the view's buffer.
TEST(KernelAliasingTest, GeometricOpsLeaveCachedViewBytesUntouched) {
  Frame original = NoisyFrame(12, 20, 3, 88);
  SharedBytes bytes = MakeSharedBytes(original.Serialize());
  const std::vector<uint8_t> snapshot = *bytes;
  auto view = Frame::DeserializeShared(bytes);
  ASSERT_TRUE(view.ok());
  const uint8_t* pixels = view->data().data();

  auto bilinear = Resize(*view, 7, 31);
  auto nearest = Resize(*view, 24, 9, Interpolation::kNearest);
  ASSERT_TRUE(bilinear.ok());
  ASSERT_TRUE(nearest.ok());
  Frame flipped = FlipHorizontal(*view);
  Frame rotated = Rotate90(*view);

  EXPECT_EQ(*bytes, snapshot) << "a geometric op wrote through the cached view";
  EXPECT_EQ(view->data().data(), pixels) << "reading the view must not clone it";
  EXPECT_EQ(*bilinear, pixel_reference::ResizeBilinear(original, 7, 31));
  EXPECT_EQ(*nearest, pixel_reference::ResizeNearest(original, 24, 9));
  EXPECT_EQ(flipped, pixel_reference::FlipHorizontal(original));
  EXPECT_EQ(rotated, pixel_reference::Rotate90(original));
  for (const Frame* out : {&*bilinear, &*nearest, &flipped, &rotated}) {
    EXPECT_NE(out->data().data(), pixels);
  }
}

}  // namespace
}  // namespace sand
