// Flat byte-plane kernels behind the codec's temporal delta coding, the
// executor's merge averaging, and the point and geometric ops in
// image_ops.cc.
//
// The hot loops here are written for autovectorization: contiguous uint8_t
// spans, __restrict pointers, branch-free bodies, and 32-bit accumulators
// (see bench_micro_kernels for measured gains; SAND_NATIVE_ARCH=ON lets the
// compiler pick wider vectors). Point ops with a value-dependent formula
// (contrast's double math, brightness saturation) are folded into a 256-entry
// lookup table once per frame instead of per byte. The geometric kernels
// (resize, flip, rotate) hoist all coordinate math out of the pixel loops
// into per-row and per-column tables and move bytes through row pointers.
//
// Every kernel has a retained scalar reference in `pixel_reference` — the
// original per-byte formulations — which the golden tests in tensor_test.cc
// and the --smoke mode of bench_micro_kernels pin the fast paths against
// byte-for-byte. The project builds with -ffp-contract=off (top-level
// CMakeLists.txt): the double math must not fuse into FMA under
// -march=native, so every build produces the same bytes.

#ifndef SAND_TENSOR_PIXEL_KERNELS_H_
#define SAND_TENSOR_PIXEL_KERNELS_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/tensor/frame.h"

namespace sand {

// 256-entry point-op table: out_byte = lut[in_byte].
using PixelLut = std::array<uint8_t, 256>;

// lut[v] = clamp(v + delta, 0, 255).
PixelLut BrightnessLut(int delta);

// lut[v] = clamp(mean + (v - mean) * factor, 0, 255) rounded half-up —
// the same formula AdjustContrast applied per byte.
PixelLut ContrastLut(double mean, double factor);

// lut[v] = 255 - v.
PixelLut InvertLut();

// out[i] = lut[in[i]]. in and out may alias exactly (in-place) but must not
// partially overlap. Spans must be the same length.
void ApplyLut(std::span<const uint8_t> in, const PixelLut& lut, std::span<uint8_t> out);

// out[i] = uint8_t(cur[i] - prev[i])  (mod-256 wraparound). Same lengths.
void DeltaEncodeBytes(std::span<const uint8_t> cur, std::span<const uint8_t> prev,
                      std::span<uint8_t> out);

// target[i] = uint8_t(target[i] + delta[i])  (mod-256 wraparound).
void DeltaApplyBytes(std::span<uint8_t> target, std::span<const uint8_t> delta);

// acc[i] += in[i], widening to 32 bits. Same lengths.
void AccumulateBytes(std::span<const uint8_t> in, std::span<uint32_t> acc);

// out[i] = acc[i] / divisor (truncating integer division). Same lengths.
void DivideBytes(std::span<const uint32_t> acc, uint32_t divisor, std::span<uint8_t> out);

// out[i] = (sum over inputs of input[i]) / inputs.size(), truncating — the
// executor's merge-node average. All spans must share out's length;
// inputs must be non-empty.
void MergeAverage(std::span<const std::span<const uint8_t>> inputs, std::span<uint8_t> out);

// Geometric kernels over interleaved row-major H x W x C planes (Frame's
// layout). Callers check shapes: every dimension >= 1, `in` holds
// in_h * in_w * channels bytes, `out` holds the output plane, and the two
// do not overlap.

// Bilinear resize to out_h x out_w with half-pixel centers and clamped
// borders: the formula Resize has always used, evaluated in double.
void ResizeBilinearBytes(std::span<const uint8_t> in, int in_h, int in_w, int channels,
                         std::span<uint8_t> out, int out_h, int out_w);

// Nearest-neighbour resize: output (y, x) copies source (y * in_h / out_h,
// x * in_w / out_w), truncated and clamped.
void ResizeNearestBytes(std::span<const uint8_t> in, int in_h, int in_w, int channels,
                        std::span<uint8_t> out, int out_h, int out_w);

// Left-right mirror; `out` is h x w x channels.
void FlipHorizontalBytes(std::span<const uint8_t> in, int h, int w, int channels,
                         std::span<uint8_t> out);

// 90-degree clockwise rotation; `out` is w x h x channels.
void Rotate90Bytes(std::span<const uint8_t> in, int h, int w, int channels,
                   std::span<uint8_t> out);

// Retained scalar formulations. These are the original per-byte loops the
// vectorized kernels replaced; golden tests compare against them.
namespace pixel_reference {

uint8_t Brightness(uint8_t v, int delta);
uint8_t Contrast(uint8_t v, double mean, double factor);
uint8_t Invert(uint8_t v);
void DeltaEncodeBytes(std::span<const uint8_t> cur, std::span<const uint8_t> prev,
                      std::span<uint8_t> out);
void DeltaApplyBytes(std::span<uint8_t> target, std::span<const uint8_t> delta);
void MergeAverage(std::span<const std::span<const uint8_t>> inputs, std::span<uint8_t> out);

// The per-pixel Frame::At loops Resize, FlipHorizontal and Rotate90 ran
// before the geometric kernels; same argument contract as those kernels
// (non-empty input, positive output size).
Frame ResizeBilinear(const Frame& in, int out_h, int out_w);
Frame ResizeNearest(const Frame& in, int out_h, int out_w);
Frame FlipHorizontal(const Frame& in);
Frame Rotate90(const Frame& in);

}  // namespace pixel_reference

}  // namespace sand

#endif  // SAND_TENSOR_PIXEL_KERNELS_H_
