// Scalar reference implementations of the pixel kernels (the per-byte and
// per-pixel Frame::At loops they replaced). Kept in their own translation
// unit, compiled at the project's default optimization level: the golden
// tests and bench_micro_kernels compare the vectorized kernels
// (pixel_kernels.cc, built -O3) against exactly this baseline.

#include "src/tensor/pixel_kernels.h"

#include <algorithm>
#include <cmath>

namespace sand {
namespace pixel_reference {
namespace {

uint8_t SaturateD(double v) {
  return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
}

}  // namespace

uint8_t Brightness(uint8_t v, int delta) {
  return static_cast<uint8_t>(std::clamp(static_cast<int>(v) + delta, 0, 255));
}

uint8_t Contrast(uint8_t v, double mean, double factor) {
  double adjusted = mean + (static_cast<double>(v) - mean) * factor;
  return static_cast<uint8_t>(std::clamp(adjusted, 0.0, 255.0) + 0.5);
}

uint8_t Invert(uint8_t v) { return static_cast<uint8_t>(255 - v); }

void DeltaEncodeBytes(std::span<const uint8_t> cur, std::span<const uint8_t> prev,
                      std::span<uint8_t> out) {
  for (size_t i = 0; i < cur.size(); ++i) {
    out[i] = static_cast<uint8_t>(cur[i] - prev[i]);
  }
}

void DeltaApplyBytes(std::span<uint8_t> target, std::span<const uint8_t> delta) {
  for (size_t i = 0; i < target.size(); ++i) {
    target[i] = static_cast<uint8_t>(target[i] + delta[i]);
  }
}

void MergeAverage(std::span<const std::span<const uint8_t>> inputs, std::span<uint8_t> out) {
  for (size_t i = 0; i < out.size(); ++i) {
    int total = 0;
    for (std::span<const uint8_t> input : inputs) {
      total += input[i];
    }
    out[i] = static_cast<uint8_t>(total / static_cast<int>(inputs.size()));
  }
}

Frame ResizeBilinear(const Frame& in, int out_h, int out_w) {
  const int c = in.channels();
  Frame out(out_h, out_w, c);
  const double scale_y = static_cast<double>(in.height()) / out_h;
  const double scale_x = static_cast<double>(in.width()) / out_w;
  for (int y = 0; y < out_h; ++y) {
    for (int x = 0; x < out_w; ++x) {
      double fy = (y + 0.5) * scale_y - 0.5;
      double fx = (x + 0.5) * scale_x - 0.5;
      int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0, in.height() - 1);
      int x0 = std::clamp(static_cast<int>(std::floor(fx)), 0, in.width() - 1);
      int y1 = std::min(y0 + 1, in.height() - 1);
      int x1 = std::min(x0 + 1, in.width() - 1);
      double wy = std::clamp(fy - y0, 0.0, 1.0);
      double wx = std::clamp(fx - x0, 0.0, 1.0);
      for (int ch = 0; ch < c; ++ch) {
        double top = in.At(y0, x0, ch) * (1 - wx) + in.At(y0, x1, ch) * wx;
        double bot = in.At(y1, x0, ch) * (1 - wx) + in.At(y1, x1, ch) * wx;
        out.At(y, x, ch) = SaturateD(top * (1 - wy) + bot * wy);
      }
    }
  }
  return out;
}

Frame ResizeNearest(const Frame& in, int out_h, int out_w) {
  const int c = in.channels();
  Frame out(out_h, out_w, c);
  const double scale_y = static_cast<double>(in.height()) / out_h;
  const double scale_x = static_cast<double>(in.width()) / out_w;
  for (int y = 0; y < out_h; ++y) {
    for (int x = 0; x < out_w; ++x) {
      int sy = std::min(static_cast<int>(y * scale_y), in.height() - 1);
      int sx = std::min(static_cast<int>(x * scale_x), in.width() - 1);
      for (int ch = 0; ch < c; ++ch) {
        out.At(y, x, ch) = in.At(sy, sx, ch);
      }
    }
  }
  return out;
}

Frame FlipHorizontal(const Frame& in) {
  const int c = in.channels();
  Frame out(in.height(), in.width(), c);
  for (int y = 0; y < in.height(); ++y) {
    for (int x = 0; x < in.width(); ++x) {
      for (int ch = 0; ch < c; ++ch) {
        out.At(y, x, ch) = in.At(y, in.width() - 1 - x, ch);
      }
    }
  }
  return out;
}

Frame Rotate90(const Frame& in) {
  const int c = in.channels();
  Frame out(in.width(), in.height(), c);
  for (int y = 0; y < in.height(); ++y) {
    for (int x = 0; x < in.width(); ++x) {
      for (int ch = 0; ch < c; ++ch) {
        out.At(x, in.height() - 1 - y, ch) = in.At(y, x, ch);
      }
    }
  }
  return out;
}

}  // namespace pixel_reference

}  // namespace sand
