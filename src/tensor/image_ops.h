// Image augmentation operations over Frame.
//
// These are the concrete implementations behind SAND's augmentation edges:
// resize, crop, flip, rotate, color jitter, blur, normalize. All operations
// are pure (input frame in, new frame out) so they can be freely reordered,
// cached, and shared by the materialization planner.

#ifndef SAND_TENSOR_IMAGE_OPS_H_
#define SAND_TENSOR_IMAGE_OPS_H_

#include <array>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/tensor/frame.h"

namespace sand {

enum class Interpolation {
  kNearest,
  kBilinear,
};

// Resizes to out_h x out_w. Rejects empty frames and non-positive targets.
Result<Frame> Resize(const Frame& in, int out_h, int out_w,
                     Interpolation interp = Interpolation::kBilinear);

// Crops the rectangle [y, y+h) x [x, x+w); must lie inside the frame.
Result<Frame> Crop(const Frame& in, int y, int x, int h, int w);

// Center crop of h x w.
Result<Frame> CenterCrop(const Frame& in, int h, int w);

// Mirrors left-right.
Frame FlipHorizontal(const Frame& in);

// Rotates 90 degrees clockwise.
Frame Rotate90(const Frame& in);

// Adds `delta` to every pixel with saturation. delta in [-255, 255].
Frame AdjustBrightness(const Frame& in, int delta);

// Scales contrast around the mean by `factor` (>= 0) with saturation.
Frame AdjustContrast(const Frame& in, double factor);

// Random color jitter: brightness delta in [-max_delta, max_delta] and
// contrast factor in [1-max_contrast, 1+max_contrast], both drawn from rng.
Frame ColorJitter(const Frame& in, Rng& rng, int max_delta, double max_contrast);

// Box blur with odd kernel size k (k=1 returns a copy). Separable
// sliding-window implementation, O(1) per pixel in k.
Result<Frame> BoxBlur(const Frame& in, int k);

// The retained O(r^2)-per-pixel scalar blur; byte-identical to BoxBlur.
// Kept as the golden reference for tensor_test.cc and bench_micro_kernels.
Result<Frame> BoxBlurReference(const Frame& in, int k);

// Inverts pixel values (255 - v); the paper's `inv_sample` example op.
Frame Invert(const Frame& in);

// Per-channel mean over the frame, for normalization statistics.
std::array<double, 4> ChannelMeans(const Frame& in);

}  // namespace sand

#endif  // SAND_TENSOR_IMAGE_OPS_H_
