#include "src/tensor/pixel_kernels.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

namespace sand {
namespace {

// Resize's rounding, as in pixel_reference: clamp, add 0.5, truncate.
uint8_t SaturateD(double v) {
  return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
}

// The row loops below take the channel count as a template argument:
// kChannels == 3 (every RGB frame) fixes the per-pixel loop's length at
// compile time; kChannels == 0 reads the runtime count. At the SlowFast
// shapes a runtime-count loop made nearest, flip and rotate 2.6-5.1x
// slower and bilinear 1.2x slower (bench_micro_kernels).
template <int kChannels>
int ChannelCount(int channels) {
  return kChannels > 0 ? kChannels : channels;
}

// Horizontal bilinear pass over one source row: for output column x,
// dst[x*c + ch] = row[x0[x] + ch] * w0[x] + row[x1[x] + ch] * w1[x], the
// `top`/`bot` term of the per-pixel formula. x0/x1 are element offsets into
// `row`, the source row already widened to double (a vectorized widening
// once per row is cheaper than two scalar conversions per output element).
template <int kChannels>
void InterpolateRow(const double* __restrict row, const size_t* __restrict x0,
                    const size_t* __restrict x1, const double* __restrict w0,
                    const double* __restrict w1, int out_w, int channels,
                    double* __restrict dst) {
  const int c = ChannelCount<kChannels>(channels);
  for (int x = 0; x < out_w; ++x) {
    const double* a = row + x0[x];
    const double* b = row + x1[x];
    const double wa = w0[x];
    const double wb = w1[x];
    for (int ch = 0; ch < c; ++ch) {
      dst[ch] = a[ch] * wa + b[ch] * wb;
    }
    dst += c;
  }
}

// Nearest-neighbour gather of one output row; cols are source byte offsets.
template <int kChannels>
void GatherRow(const uint8_t* __restrict src, const size_t* __restrict cols, int out_w,
               int channels, uint8_t* __restrict dst) {
  const int c = ChannelCount<kChannels>(channels);
  for (int x = 0; x < out_w; ++x) {
    const uint8_t* s = src + cols[x];
    for (int ch = 0; ch < c; ++ch) {
      dst[ch] = s[ch];
    }
    dst += c;
  }
}

template <int kChannels>
void FlipRow(const uint8_t* __restrict src, int w, int channels, uint8_t* __restrict dst) {
  const int c = ChannelCount<kChannels>(channels);
  for (int x = 0; x < w; ++x) {
    const uint8_t* s = src + static_cast<size_t>(w - 1 - x) * c;
    for (int ch = 0; ch < c; ++ch) {
      dst[ch] = s[ch];
    }
    dst += c;
  }
}

// One output row of a clockwise rotation: a source column read bottom to
// top. `column` points at the column's pixel in source row 0.
template <int kChannels>
void RotateRow(const uint8_t* __restrict column, size_t src_row_stride, int h, int channels,
               uint8_t* __restrict dst) {
  const int c = ChannelCount<kChannels>(channels);
  for (int j = 0; j < h; ++j) {
    const uint8_t* s = column + static_cast<size_t>(h - 1 - j) * src_row_stride;
    for (int ch = 0; ch < c; ++ch) {
      dst[ch] = s[ch];
    }
    dst += c;
  }
}

// Runs fn(std::integral_constant<int, C>{}) with C = 3 for three channels
// and C = 0 (runtime count) otherwise, so each kernel dispatches once per
// call.
template <typename Fn>
void WithChannels(int channels, Fn&& fn) {
  if (channels == 3) {
    return fn(std::integral_constant<int, 3>{});
  }
  return fn(std::integral_constant<int, 0>{});
}

}  // namespace

PixelLut BrightnessLut(int delta) {
  PixelLut lut;
  for (int v = 0; v < 256; ++v) {
    lut[static_cast<size_t>(v)] = static_cast<uint8_t>(std::clamp(v + delta, 0, 255));
  }
  return lut;
}

PixelLut ContrastLut(double mean, double factor) {
  PixelLut lut;
  for (int v = 0; v < 256; ++v) {
    double adjusted = mean + (static_cast<double>(v) - mean) * factor;
    lut[static_cast<size_t>(v)] = static_cast<uint8_t>(std::clamp(adjusted, 0.0, 255.0) + 0.5);
  }
  return lut;
}

PixelLut InvertLut() {
  PixelLut lut;
  for (int v = 0; v < 256; ++v) {
    lut[static_cast<size_t>(v)] = static_cast<uint8_t>(255 - v);
  }
  return lut;
}

void ApplyLut(std::span<const uint8_t> in, const PixelLut& lut, std::span<uint8_t> out) {
  const uint8_t* __restrict src = in.data();
  const uint8_t* __restrict table = lut.data();
  uint8_t* __restrict dst = out.data();
  const size_t n = in.size();
  for (size_t i = 0; i < n; ++i) {
    dst[i] = table[src[i]];
  }
}

void DeltaEncodeBytes(std::span<const uint8_t> cur, std::span<const uint8_t> prev,
                      std::span<uint8_t> out) {
  const uint8_t* __restrict a = cur.data();
  const uint8_t* __restrict b = prev.data();
  uint8_t* __restrict dst = out.data();
  const size_t n = cur.size();
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<uint8_t>(a[i] - b[i]);
  }
}

void DeltaApplyBytes(std::span<uint8_t> target, std::span<const uint8_t> delta) {
  uint8_t* __restrict dst = target.data();
  const uint8_t* __restrict d = delta.data();
  const size_t n = target.size();
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<uint8_t>(dst[i] + d[i]);
  }
}

void AccumulateBytes(std::span<const uint8_t> in, std::span<uint32_t> acc) {
  const uint8_t* __restrict src = in.data();
  uint32_t* __restrict sums = acc.data();
  const size_t n = in.size();
  for (size_t i = 0; i < n; ++i) {
    sums[i] += src[i];
  }
}

void DivideBytes(std::span<const uint32_t> acc, uint32_t divisor, std::span<uint8_t> out) {
  const uint32_t* __restrict sums = acc.data();
  uint8_t* __restrict dst = out.data();
  const size_t n = out.size();
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<uint8_t>(sums[i] / divisor);
  }
}

void MergeAverage(std::span<const std::span<const uint8_t>> inputs, std::span<uint8_t> out) {
  const size_t n = out.size();
  // The common merge widths (2-4 parents) get single-pass loops with a
  // compile-time divisor — branch-free bodies the autovectorizer turns into
  // widening-add + multiply-shift sequences. Wider merges fall back to a
  // u32 accumulator plane.
  if (inputs.size() == 2) {
    const uint8_t* __restrict a = inputs[0].data();
    const uint8_t* __restrict b = inputs[1].data();
    uint8_t* __restrict dst = out.data();
    for (size_t i = 0; i < n; ++i) {
      dst[i] = static_cast<uint8_t>(
          (static_cast<uint32_t>(a[i]) + static_cast<uint32_t>(b[i])) / 2u);
    }
    return;
  }
  if (inputs.size() == 3) {
    const uint8_t* __restrict a = inputs[0].data();
    const uint8_t* __restrict b = inputs[1].data();
    const uint8_t* __restrict c = inputs[2].data();
    uint8_t* __restrict dst = out.data();
    for (size_t i = 0; i < n; ++i) {
      dst[i] = static_cast<uint8_t>((static_cast<uint32_t>(a[i]) + static_cast<uint32_t>(b[i]) +
                                     static_cast<uint32_t>(c[i])) /
                                    3u);
    }
    return;
  }
  if (inputs.size() == 4) {
    const uint8_t* __restrict a = inputs[0].data();
    const uint8_t* __restrict b = inputs[1].data();
    const uint8_t* __restrict c = inputs[2].data();
    const uint8_t* __restrict d = inputs[3].data();
    uint8_t* __restrict dst = out.data();
    for (size_t i = 0; i < n; ++i) {
      dst[i] = static_cast<uint8_t>((static_cast<uint32_t>(a[i]) + static_cast<uint32_t>(b[i]) +
                                     static_cast<uint32_t>(c[i]) + static_cast<uint32_t>(d[i])) /
                                    4u);
    }
    return;
  }
  std::vector<uint32_t> acc(n, 0);
  for (std::span<const uint8_t> input : inputs) {
    AccumulateBytes(input, acc);
  }
  DivideBytes(acc, static_cast<uint32_t>(inputs.size()), out);
}

void ResizeBilinearBytes(std::span<const uint8_t> in, int in_h, int in_w, int channels,
                         std::span<uint8_t> out, int out_h, int out_w) {
  const size_t c = static_cast<size_t>(channels);
  const size_t in_stride = static_cast<size_t>(in_w) * c;
  const size_t out_stride = static_cast<size_t>(out_w) * c;
  const double scale_y = static_cast<double>(in_h) / out_h;
  const double scale_x = static_cast<double>(in_w) / out_w;

  // Per output column: both source element offsets and both weights, from
  // the per-pixel formula's own expressions (so every double is bit-equal).
  std::vector<size_t> x0s(static_cast<size_t>(out_w));
  std::vector<size_t> x1s(static_cast<size_t>(out_w));
  std::vector<double> w0s(static_cast<size_t>(out_w));
  std::vector<double> w1s(static_cast<size_t>(out_w));
  for (int x = 0; x < out_w; ++x) {
    double fx = (x + 0.5) * scale_x - 0.5;
    int x0 = std::clamp(static_cast<int>(std::floor(fx)), 0, in_w - 1);
    int x1 = std::min(x0 + 1, in_w - 1);
    double wx = std::clamp(fx - x0, 0.0, 1.0);
    x0s[static_cast<size_t>(x)] = static_cast<size_t>(x0) * c;
    x1s[static_cast<size_t>(x)] = static_cast<size_t>(x1) * c;
    w0s[static_cast<size_t>(x)] = 1 - wx;
    w1s[static_cast<size_t>(x)] = wx;
  }

  // Two horizontally interpolated source rows, kept while consecutive
  // output rows still read them (every source row is interpolated once on
  // a downscale, and adjacent output rows share both rows on an upscale).
  std::vector<double> buffers(2 * out_stride + in_stride);
  double* row_buf[2] = {buffers.data(), buffers.data() + out_stride};
  double* __restrict widened = buffers.data() + 2 * out_stride;
  int row_src[2] = {-1, -1};
  auto source_row = [&](int src_row, int keep) -> const double* {
    for (int s = 0; s < 2; ++s) {
      if (row_src[s] == src_row) {
        return row_buf[s];
      }
    }
    const int s = row_src[0] == keep ? 1 : 0;
    const uint8_t* __restrict src = in.data() + static_cast<size_t>(src_row) * in_stride;
    for (size_t i = 0; i < in_stride; ++i) {
      widened[i] = src[i];
    }
    WithChannels(channels, [&](auto kc) {
      InterpolateRow<decltype(kc)::value>(widened, x0s.data(), x1s.data(), w0s.data(),
                                          w1s.data(), out_w, channels, row_buf[s]);
    });
    row_src[s] = src_row;
    return row_buf[s];
  };

  for (int y = 0; y < out_h; ++y) {
    double fy = (y + 0.5) * scale_y - 0.5;
    int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0, in_h - 1);
    int y1 = std::min(y0 + 1, in_h - 1);
    double wy = std::clamp(fy - y0, 0.0, 1.0);
    const double* __restrict top = source_row(y0, y1);
    const double* __restrict bot = source_row(y1, y0);
    const double w_top = 1 - wy;
    uint8_t* __restrict dst = out.data() + static_cast<size_t>(y) * out_stride;
    for (size_t i = 0; i < out_stride; ++i) {
      dst[i] = SaturateD(top[i] * w_top + bot[i] * wy);
    }
  }
}

void ResizeNearestBytes(std::span<const uint8_t> in, int in_h, int in_w, int channels,
                        std::span<uint8_t> out, int out_h, int out_w) {
  const size_t c = static_cast<size_t>(channels);
  const size_t in_stride = static_cast<size_t>(in_w) * c;
  const size_t out_stride = static_cast<size_t>(out_w) * c;
  const double scale_y = static_cast<double>(in_h) / out_h;
  const double scale_x = static_cast<double>(in_w) / out_w;
  std::vector<size_t> cols(static_cast<size_t>(out_w));
  for (int x = 0; x < out_w; ++x) {
    int sx = std::min(static_cast<int>(x * scale_x), in_w - 1);
    cols[static_cast<size_t>(x)] = static_cast<size_t>(sx) * c;
  }
  WithChannels(channels, [&](auto kc) {
    for (int y = 0; y < out_h; ++y) {
      int sy = std::min(static_cast<int>(y * scale_y), in_h - 1);
      GatherRow<decltype(kc)::value>(in.data() + static_cast<size_t>(sy) * in_stride,
                                     cols.data(), out_w, channels,
                                     out.data() + static_cast<size_t>(y) * out_stride);
    }
  });
}

void FlipHorizontalBytes(std::span<const uint8_t> in, int h, int w, int channels,
                         std::span<uint8_t> out) {
  const size_t stride = static_cast<size_t>(w) * static_cast<size_t>(channels);
  WithChannels(channels, [&](auto kc) {
    for (int y = 0; y < h; ++y) {
      FlipRow<decltype(kc)::value>(in.data() + static_cast<size_t>(y) * stride, w, channels,
                                   out.data() + static_cast<size_t>(y) * stride);
    }
  });
}

void Rotate90Bytes(std::span<const uint8_t> in, int h, int w, int channels,
                   std::span<uint8_t> out) {
  // Output row x is source column x read bottom to top: out(x, j) =
  // in(h - 1 - j, x).
  const size_t c = static_cast<size_t>(channels);
  const size_t in_stride = static_cast<size_t>(w) * c;
  const size_t out_stride = static_cast<size_t>(h) * c;
  WithChannels(channels, [&](auto kc) {
    for (int x = 0; x < w; ++x) {
      RotateRow<decltype(kc)::value>(in.data() + static_cast<size_t>(x) * c, in_stride, h,
                                     channels, out.data() + static_cast<size_t>(x) * out_stride);
    }
  });
}

}  // namespace sand
