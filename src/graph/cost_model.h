// Cost model annotating concrete-graph edges (paper §5.3: "each edge
// represents an operation with its weight indicating computational
// overhead"). Units are nanoseconds of CPU work; defaults were calibrated
// against the real substrate implementations on this repo's synthetic
// videos, but only the *relative* magnitudes matter to pruning decisions.

#ifndef SAND_GRAPH_COST_MODEL_H_
#define SAND_GRAPH_COST_MODEL_H_

#include <cstdint>

#include "src/config/pipeline_config.h"

namespace sand {

struct CostModel {
  // Decoding one frame at random access: the GOP dependency forces ~half a
  // GOP of extra frames on average, folded into this per-frame figure.
  double decode_ns_per_pixel = 14.0;
  // Augmentation coefficients (per output pixel). These are planning
  // weights: pruning ranks views by them, so changing one changes which
  // views are kept and how much work a tight budget recomputes. The resize
  // and flip weights predate the row kernels in pixel_kernels.cc, which
  // made both ops several times cheaper; they are left as they were on
  // purpose, and re-weighting them is a separate, measured change.
  double resize_ns_per_pixel = 6.0;
  double crop_ns_per_pixel = 0.8;
  double flip_ns_per_pixel = 1.2;
  double jitter_ns_per_pixel = 2.5;
  double blur_ns_per_pixel = 9.0;
  double rotate_ns_per_pixel = 1.2;
  double invert_ns_per_pixel = 0.6;
  double merge_ns_per_pixel = 1.5;
  double custom_ns_per_pixel = 4.0;
  // Lossless cache codec (per byte, applies when persisting an object).
  double compress_ns_per_byte = 4.0;
  // Expected stored-size ratio of the lossless cache codec.
  double cache_compress_ratio = 1.8;

  double AugCost(const AugOp& op, uint64_t out_pixels) const {
    double per_pixel = custom_ns_per_pixel;
    switch (op.kind) {
      case OpKind::kResize:
        per_pixel = resize_ns_per_pixel;
        break;
      case OpKind::kCenterCrop:
      case OpKind::kRandomCrop:
        per_pixel = crop_ns_per_pixel;
        break;
      case OpKind::kFlip:
        per_pixel = flip_ns_per_pixel;
        break;
      case OpKind::kColorJitter:
        per_pixel = jitter_ns_per_pixel;
        break;
      case OpKind::kBlur:
        per_pixel = blur_ns_per_pixel * op.kernel;
        break;
      case OpKind::kRotate90:
        per_pixel = rotate_ns_per_pixel;
        break;
      case OpKind::kInvert:
        per_pixel = invert_ns_per_pixel;
        break;
      case OpKind::kCustom:
        per_pixel = custom_ns_per_pixel;
        break;
    }
    return per_pixel * static_cast<double>(out_pixels);
  }

  uint64_t EstimateStoredBytes(uint64_t raw_bytes) const {
    double stored = static_cast<double>(raw_bytes) / cache_compress_ratio;
    return static_cast<uint64_t>(stored) + 1;
  }
};

}  // namespace sand

#endif  // SAND_GRAPH_COST_MODEL_H_
