// Micro-benchmark for the vectorized pixel kernels (src/tensor/pixel_kernels
// + the separable BoxBlur), measured against the retained scalar references.
//
// Each kernel runs both paths over the same buffers: outputs are asserted
// byte-identical (the golden-test property, re-checked here on bench-sized
// inputs), then timed. Results report ns per output byte and the
// fast/reference speedup. All kernels are single-threaded CPU loops, so the
// numbers are meaningful even on a 1-CPU container.
//
// The point and blur rows run on one noisy frame (256x256x3, 64x64x3 under
// --smoke). The geometric rows use the SlowFast augment chain's own shapes
// in both modes: a decoded 64x96x3 frame resized to 48x64, and the 40x40x3
// crop that gets flipped; rotate runs on the 64x96x3 frame.
//
// Modes:
//   (default)  full-size frames, several repetitions, JSON on stdout
//   --smoke    small frames, few reps; exits non-zero unless every kernel
//              is bit-identical AND blur speeds up >= 2x (the algorithmic
//              O(r^2) -> O(1) win; wired into tools/check_build.sh so a
//              kernel regression fails the one-command gate)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/frame.h"
#include "src/tensor/image_ops.h"
#include "src/tensor/pixel_kernels.h"

namespace sand {
namespace {

struct KernelResult {
  std::string name;
  double fast_ns_per_byte = 0;
  double ref_ns_per_byte = 0;
  bool identical = false;

  double Speedup() const {
    return fast_ns_per_byte > 0 ? ref_ns_per_byte / fast_ns_per_byte : 0.0;
  }
};

double TimeNs(int reps, const std::function<void()>& body) {
  body();  // warm-up (and the correctness-checked run)
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    body();
  }
  double ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start).count();
  return ns / reps;
}

Frame NoisyFrame(int h, int w, int c, uint64_t seed) {
  Frame frame(h, w, c);
  Rng rng(seed);
  for (uint8_t& v : frame.MutableData()) {
    v = static_cast<uint8_t>(rng.NextBounded(256));
  }
  return frame;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }
  const int h = smoke ? 64 : 256;
  const int w = smoke ? 64 : 256;
  const int c = 3;
  const int reps = smoke ? 20 : 200;
  const size_t n = static_cast<size_t>(h) * w * c;
  const double bytes = static_cast<double>(n);

  Frame cur = NoisyFrame(h, w, c, 1);
  Frame prev = NoisyFrame(h, w, c, 2);
  Frame third = NoisyFrame(h, w, c, 3);
  std::vector<KernelResult> results;

  {
    KernelResult r{"delta_encode"};
    std::vector<uint8_t> fast(n), ref(n);
    r.fast_ns_per_byte =
        TimeNs(reps, [&] { DeltaEncodeBytes(cur.data(), prev.data(), fast); }) / bytes;
    r.ref_ns_per_byte =
        TimeNs(reps, [&] { pixel_reference::DeltaEncodeBytes(cur.data(), prev.data(), ref); }) /
        bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }
  {
    KernelResult r{"delta_apply"};
    std::vector<uint8_t> delta(n);
    DeltaEncodeBytes(cur.data(), prev.data(), delta);
    std::vector<uint8_t> fast(prev.data().begin(), prev.data().end());
    std::vector<uint8_t> ref = fast;
    // In-place accumulation: both paths advance identically every rep, so
    // the buffers stay comparable.
    r.fast_ns_per_byte = TimeNs(reps, [&] { DeltaApplyBytes(fast, delta); }) / bytes;
    r.ref_ns_per_byte = TimeNs(reps, [&] { pixel_reference::DeltaApplyBytes(ref, delta); }) / bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }
  {
    KernelResult r{"merge_average"};
    std::vector<std::span<const uint8_t>> inputs = {cur.data(), prev.data(), third.data()};
    std::vector<uint8_t> fast(n), ref(n);
    r.fast_ns_per_byte = TimeNs(reps, [&] { MergeAverage(inputs, fast); }) / bytes;
    r.ref_ns_per_byte = TimeNs(reps, [&] { pixel_reference::MergeAverage(inputs, ref); }) / bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }
  {
    KernelResult r{"brightness"};
    Frame fast, ref;
    r.fast_ns_per_byte = TimeNs(reps, [&] { fast = AdjustBrightness(cur, 37); }) / bytes;
    r.ref_ns_per_byte = TimeNs(reps, [&] {
                          ref = cur;
                          auto out = ref.MutableData();
                          auto in = cur.data();
                          for (size_t i = 0; i < in.size(); ++i) {
                            out[i] = pixel_reference::Brightness(in[i], 37);
                          }
                        }) /
                        bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }
  {
    KernelResult r{"contrast"};
    Frame fast, ref;
    const double mean = cur.MeanIntensity();
    r.fast_ns_per_byte = TimeNs(reps, [&] { fast = AdjustContrast(cur, 1.6); }) / bytes;
    r.ref_ns_per_byte = TimeNs(reps, [&] {
                          ref = cur;
                          auto out = ref.MutableData();
                          auto in = cur.data();
                          for (size_t i = 0; i < in.size(); ++i) {
                            out[i] = pixel_reference::Contrast(in[i], mean, 1.6);
                          }
                        }) /
                        bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }
  {
    // ColorJitter's composition (the "jitter kernel" in the fig. tables):
    // brightness then contrast, LUT path vs scalar path.
    KernelResult r{"jitter"};
    Frame fast, ref;
    r.fast_ns_per_byte =
        TimeNs(reps, [&] { fast = AdjustContrast(AdjustBrightness(cur, -21), 0.8); }) / bytes;
    r.ref_ns_per_byte = TimeNs(reps, [&] {
                          Frame bright = cur;
                          auto mid = bright.MutableData();
                          auto in = cur.data();
                          for (size_t i = 0; i < in.size(); ++i) {
                            mid[i] = pixel_reference::Brightness(in[i], -21);
                          }
                          const double mean = bright.MeanIntensity();
                          ref = bright;
                          auto out = ref.MutableData();
                          for (size_t i = 0; i < mid.size(); ++i) {
                            out[i] = pixel_reference::Contrast(mid[i], mean, 0.8);
                          }
                        }) /
                        bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }
  {
    KernelResult r{"invert"};
    Frame fast, ref;
    r.fast_ns_per_byte = TimeNs(reps, [&] { fast = Invert(cur); }) / bytes;
    r.ref_ns_per_byte = TimeNs(reps, [&] {
                          ref = cur;
                          for (uint8_t& v : ref.MutableData()) {
                            v = pixel_reference::Invert(v);
                          }
                        }) /
                        bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }
  {
    KernelResult r{"box_blur_k9"};
    const int k = 9;
    Frame fast, ref;
    const int blur_reps = smoke ? 5 : 20;  // the reference is O(r^2)/pixel
    r.fast_ns_per_byte = TimeNs(blur_reps, [&] { fast = *BoxBlur(cur, k); }) / bytes;
    r.ref_ns_per_byte = TimeNs(blur_reps, [&] { ref = *BoxBlurReference(cur, k); }) / bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }

  const Frame decoded = NoisyFrame(64, 96, 3, 4);
  const Frame cropped = NoisyFrame(40, 40, 3, 5);
  const int geo_reps = smoke ? 50 : 2000;
  {
    KernelResult r{"resize_bilinear_64x96_to_48x64"};
    Frame fast, ref;
    const double out_bytes = 48.0 * 64 * 3;
    r.fast_ns_per_byte = TimeNs(geo_reps, [&] { fast = *Resize(decoded, 48, 64); }) / out_bytes;
    r.ref_ns_per_byte =
        TimeNs(geo_reps, [&] { ref = pixel_reference::ResizeBilinear(decoded, 48, 64); }) /
        out_bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }
  {
    KernelResult r{"resize_nearest_64x96_to_48x64"};
    Frame fast, ref;
    const double out_bytes = 48.0 * 64 * 3;
    r.fast_ns_per_byte =
        TimeNs(geo_reps, [&] { fast = *Resize(decoded, 48, 64, Interpolation::kNearest); }) /
        out_bytes;
    r.ref_ns_per_byte =
        TimeNs(geo_reps, [&] { ref = pixel_reference::ResizeNearest(decoded, 48, 64); }) /
        out_bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }
  {
    KernelResult r{"flip_40x40"};
    Frame fast, ref;
    const double out_bytes = static_cast<double>(cropped.size_bytes());
    r.fast_ns_per_byte = TimeNs(geo_reps, [&] { fast = FlipHorizontal(cropped); }) / out_bytes;
    r.ref_ns_per_byte =
        TimeNs(geo_reps, [&] { ref = pixel_reference::FlipHorizontal(cropped); }) / out_bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }
  {
    KernelResult r{"rotate90_64x96"};
    Frame fast, ref;
    const double out_bytes = static_cast<double>(decoded.size_bytes());
    r.fast_ns_per_byte = TimeNs(geo_reps, [&] { fast = Rotate90(decoded); }) / out_bytes;
    r.ref_ns_per_byte =
        TimeNs(geo_reps, [&] { ref = pixel_reference::Rotate90(decoded); }) / out_bytes;
    r.identical = fast == ref;
    results.push_back(r);
  }

  std::printf("{\n  \"bench\": \"micro_kernels\",\n  \"frame\": \"%dx%dx%d\",\n", h, w, c);
  std::printf("  \"kernels\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::printf(
        "    {\"name\": \"%s\", \"fast_ns_per_byte\": %.4f, \"ref_ns_per_byte\": %.4f, "
        "\"speedup\": %.2f, \"identical\": %s}%s\n",
        r.name.c_str(), r.fast_ns_per_byte, r.ref_ns_per_byte, r.Speedup(),
        r.identical ? "true" : "false", i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");

  int failures = 0;
  for (const KernelResult& r : results) {
    if (!r.identical) {
      std::fprintf(stderr, "FAIL: kernel %s diverges from the scalar reference\n",
                   r.name.c_str());
      ++failures;
    }
  }
  if (smoke) {
    for (const KernelResult& r : results) {
      if (r.name == "box_blur_k9" && r.Speedup() < 2.0) {
        std::fprintf(stderr, "FAIL: blur speedup %.2fx < 2x (separable path regressed)\n",
                     r.Speedup());
        ++failures;
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sand

int main(int argc, char** argv) { return sand::Main(argc, argv); }
