#include "src/tensor/image_ops.h"

#include <algorithm>

#include "src/tensor/pixel_kernels.h"

namespace sand {

Result<Frame> Resize(const Frame& in, int out_h, int out_w, Interpolation interp) {
  if (in.empty()) {
    return InvalidArgument("Resize: empty input");
  }
  if (out_h <= 0 || out_w <= 0) {
    return InvalidArgument("Resize: non-positive output size");
  }
  Frame out(out_h, out_w, in.channels());
  if (interp == Interpolation::kNearest) {
    ResizeNearestBytes(in.data(), in.height(), in.width(), in.channels(), out.MutableData(), out_h,
                       out_w);
  } else {
    ResizeBilinearBytes(in.data(), in.height(), in.width(), in.channels(), out.MutableData(),
                        out_h, out_w);
  }
  return out;
}

Result<Frame> Crop(const Frame& in, int y, int x, int h, int w) {
  if (h <= 0 || w <= 0) {
    return InvalidArgument("Crop: non-positive size");
  }
  if (y < 0 || x < 0 || y + h > in.height() || x + w > in.width()) {
    return OutOfRange("Crop: rectangle outside frame");
  }
  const int c = in.channels();
  Frame out(h, w, c);
  std::span<uint8_t> dst_pixels = out.MutableData();
  for (int row = 0; row < h; ++row) {
    const uint8_t* src = &in.data()[((static_cast<size_t>(y) + row) * in.width() + x) * c];
    uint8_t* dst = &dst_pixels[static_cast<size_t>(row) * w * c];
    std::memcpy(dst, src, static_cast<size_t>(w) * c);
  }
  return out;
}

Result<Frame> CenterCrop(const Frame& in, int h, int w) {
  int y = (in.height() - h) / 2;
  int x = (in.width() - w) / 2;
  return Crop(in, y, x, h, w);
}

Frame FlipHorizontal(const Frame& in) {
  Frame out(in.height(), in.width(), in.channels());
  if (!in.empty()) {
    FlipHorizontalBytes(in.data(), in.height(), in.width(), in.channels(), out.MutableData());
  }
  return out;
}

Frame Rotate90(const Frame& in) {
  Frame out(in.width(), in.height(), in.channels());
  if (!in.empty()) {
    Rotate90Bytes(in.data(), in.height(), in.width(), in.channels(), out.MutableData());
  }
  return out;
}

Frame AdjustBrightness(const Frame& in, int delta) {
  PixelLut lut = BrightnessLut(delta);
  Frame out = in;  // shares in's buffer; MutableData clones it once
  std::span<uint8_t> bytes = out.MutableData();
  ApplyLut(bytes, lut, bytes);
  return out;
}

Frame AdjustContrast(const Frame& in, double factor) {
  // The saturating double math runs once per distinct byte value (256 LUT
  // entries) instead of once per byte.
  PixelLut lut = ContrastLut(in.MeanIntensity(), factor);
  Frame out = in;  // shares in's buffer; MutableData clones it once
  std::span<uint8_t> bytes = out.MutableData();
  ApplyLut(bytes, lut, bytes);
  return out;
}

Frame ColorJitter(const Frame& in, Rng& rng, int max_delta, double max_contrast) {
  int delta = static_cast<int>(rng.NextInRange(-max_delta, max_delta));
  double factor = 1.0 + (rng.NextDouble() * 2.0 - 1.0) * max_contrast;
  return AdjustContrast(AdjustBrightness(in, delta), factor);
}

Result<Frame> BoxBlur(const Frame& in, int k) {
  if (k <= 0 || k % 2 == 0) {
    return InvalidArgument("BoxBlur: kernel must be positive odd");
  }
  if (k == 1) {
    return in;
  }
  // Separable sliding-window sums: O(1) per pixel instead of the O(r^2)
  // gather in BoxBlurReference. The exact 2D window sum is kept in 32 bits
  // and divided once by the true (clamped) window area, so output is
  // byte-identical to the reference including at the borders.
  const int h = in.height();
  const int w = in.width();
  const int c = in.channels();
  const int r = k / 2;
  Frame out(h, w, c);
  const size_t row_stride = static_cast<size_t>(w) * c;
  std::span<const uint8_t> src = in.data();
  std::span<uint8_t> dst = out.MutableData();

  // col_sums[x*c+ch] = sum of src rows [y-r, y+r] (clamped) at column x.
  std::vector<uint32_t> col_sums(row_stride, 0);
  // Window sums per channel for the horizontal pass (c is small: <= 4).
  std::vector<uint64_t> win(static_cast<size_t>(c));

  const int init_top = std::min(r, h - 1);
  for (int y = 0; y <= init_top; ++y) {
    AccumulateBytes(src.subspan(static_cast<size_t>(y) * row_stride, row_stride), col_sums);
  }
  int rows_in = init_top + 1;

  for (int y = 0; y < h; ++y) {
    if (y > 0) {
      // Slide the vertical window down one row.
      int enter = y + r;
      if (enter < h) {
        AccumulateBytes(src.subspan(static_cast<size_t>(enter) * row_stride, row_stride),
                        col_sums);
        ++rows_in;
      }
      int leave = y - r - 1;
      if (leave >= 0) {
        const uint8_t* row = &src[static_cast<size_t>(leave) * row_stride];
        for (size_t i = 0; i < row_stride; ++i) {
          col_sums[i] -= row[i];
        }
        --rows_in;
      }
    }
    // Horizontal sliding window over the column sums.
    std::fill(win.begin(), win.end(), 0);
    const int init_right = std::min(r, w - 1);
    for (int x = 0; x <= init_right; ++x) {
      for (int ch = 0; ch < c; ++ch) {
        win[static_cast<size_t>(ch)] += col_sums[static_cast<size_t>(x) * c + ch];
      }
    }
    int cols_in = init_right + 1;
    uint8_t* out_row = &dst[static_cast<size_t>(y) * row_stride];
    for (int x = 0; x < w; ++x) {
      if (x > 0) {
        int enter = x + r;
        int leave = x - r - 1;
        if (enter < w) {
          for (int ch = 0; ch < c; ++ch) {
            win[static_cast<size_t>(ch)] += col_sums[static_cast<size_t>(enter) * c + ch];
          }
          ++cols_in;
        }
        if (leave >= 0) {
          for (int ch = 0; ch < c; ++ch) {
            win[static_cast<size_t>(ch)] -= col_sums[static_cast<size_t>(leave) * c + ch];
          }
          --cols_in;
        }
      }
      const uint64_t area = static_cast<uint64_t>(rows_in) * static_cast<uint64_t>(cols_in);
      for (int ch = 0; ch < c; ++ch) {
        out_row[static_cast<size_t>(x) * c + ch] =
            static_cast<uint8_t>(win[static_cast<size_t>(ch)] / area);
      }
    }
  }
  return out;
}

Result<Frame> BoxBlurReference(const Frame& in, int k) {
  if (k <= 0 || k % 2 == 0) {
    return InvalidArgument("BoxBlur: kernel must be positive odd");
  }
  if (k == 1) {
    return in;
  }
  const int c = in.channels();
  const int r = k / 2;
  Frame out(in.height(), in.width(), c);
  for (int y = 0; y < in.height(); ++y) {
    for (int x = 0; x < in.width(); ++x) {
      for (int ch = 0; ch < c; ++ch) {
        int sum = 0;
        int count = 0;
        for (int dy = -r; dy <= r; ++dy) {
          for (int dx = -r; dx <= r; ++dx) {
            int sy = y + dy;
            int sx = x + dx;
            if (sy >= 0 && sy < in.height() && sx >= 0 && sx < in.width()) {
              sum += in.At(sy, sx, ch);
              ++count;
            }
          }
        }
        out.At(y, x, ch) = static_cast<uint8_t>(sum / count);
      }
    }
  }
  return out;
}

Frame Invert(const Frame& in) {
  PixelLut lut = InvertLut();
  Frame out = in;  // shares in's buffer; MutableData clones it once
  std::span<uint8_t> bytes = out.MutableData();
  ApplyLut(bytes, lut, bytes);
  return out;
}

std::array<double, 4> ChannelMeans(const Frame& in) {
  std::array<double, 4> means{0, 0, 0, 0};
  if (in.empty()) {
    return means;
  }
  std::array<uint64_t, 4> sums{0, 0, 0, 0};
  const int c = std::min(in.channels(), 4);
  for (int y = 0; y < in.height(); ++y) {
    for (int x = 0; x < in.width(); ++x) {
      for (int ch = 0; ch < c; ++ch) {
        sums[ch] += in.At(y, x, ch);
      }
    }
  }
  double pixels = static_cast<double>(in.height()) * in.width();
  for (int ch = 0; ch < c; ++ch) {
    means[ch] = sums[ch] / pixels;
  }
  return means;
}

Result<std::vector<uint8_t>> StackBatch(const std::vector<Clip>& clips) {
  if (clips.empty()) {
    return InvalidArgument("StackBatch: no clips");
  }
  const size_t t = clips[0].frames.size();
  if (t == 0) {
    return InvalidArgument("StackBatch: empty clip");
  }
  const Frame& ref = clips[0].frames[0];
  for (const auto& clip : clips) {
    if (clip.frames.size() != t) {
      return InvalidArgument("StackBatch: clip length mismatch");
    }
    for (const auto& frame : clip.frames) {
      if (!frame.SameShape(ref)) {
        return InvalidArgument("StackBatch: frame shape mismatch");
      }
    }
  }
  std::vector<uint8_t> out;
  out.reserve(clips.size() * t * ref.size_bytes());
  for (const auto& clip : clips) {
    for (const auto& frame : clip.frames) {
      out.insert(out.end(), frame.data().begin(), frame.data().end());
    }
  }
  return out;
}

}  // namespace sand
