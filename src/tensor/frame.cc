#include "src/tensor/frame.h"

#include <array>

namespace sand {
namespace {

constexpr size_t kHeaderBytes = 12;  // h(u32) w(u32) c(u32)

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetU32(std::span<const uint8_t> in, size_t offset) {
  return static_cast<uint32_t>(in[offset]) | (static_cast<uint32_t>(in[offset + 1]) << 8) |
         (static_cast<uint32_t>(in[offset + 2]) << 16) |
         (static_cast<uint32_t>(in[offset + 3]) << 24);
}

// Validates the 12-byte shape header; returns the shape or an error.
Result<std::array<int, 3>> ParseHeader(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) {
    return DataLoss("frame header truncated");
  }
  int h = static_cast<int>(GetU32(bytes, 0));
  int w = static_cast<int>(GetU32(bytes, 4));
  int c = static_cast<int>(GetU32(bytes, 8));
  if (h < 0 || w < 0 || c < 0 || c > 16) {
    return DataLoss("frame header corrupt");
  }
  size_t expected = static_cast<size_t>(h) * w * c;
  if (bytes.size() - kHeaderBytes != expected) {
    return DataLoss("frame payload size mismatch");
  }
  return std::array<int, 3>{h, w, c};
}

}  // namespace

double Frame::MeanIntensity() const {
  if (empty()) {
    return 0.0;
  }
  uint64_t sum = 0;
  for (uint8_t v : data()) {
    sum += v;
  }
  return static_cast<double>(sum) / static_cast<double>(size_bytes());
}

std::vector<uint8_t> Frame::Serialize() const {
  std::vector<uint8_t> out;
  auto pixels = data();
  out.reserve(kHeaderBytes + pixels.size());
  PutU32(out, static_cast<uint32_t>(height_));
  PutU32(out, static_cast<uint32_t>(width_));
  PutU32(out, static_cast<uint32_t>(channels_));
  out.insert(out.end(), pixels.begin(), pixels.end());
  return out;
}

Result<Frame> Frame::FromPixels(int height, int width, int channels,
                               std::vector<uint8_t> pixels) {
  size_t expected = 0;
  if (height < 0 || width < 0 || channels < 0 ||
      __builtin_mul_overflow(static_cast<size_t>(height), static_cast<size_t>(width),
                             &expected) ||
      __builtin_mul_overflow(expected, static_cast<size_t>(channels), &expected) ||
      pixels.size() != expected) {
    return DataLoss("frame pixel count does not match its shape");
  }
  return Frame(height, width, channels, std::move(pixels));
}

Result<Frame> Frame::Deserialize(std::span<const uint8_t> bytes) {
  SAND_ASSIGN_OR_RETURN(auto shape, ParseHeader(bytes));
  std::vector<uint8_t> data(bytes.begin() + kHeaderBytes, bytes.end());
  return Frame(shape[0], shape[1], shape[2], std::move(data));
}

Result<Frame> Frame::DeserializeShared(SharedBytes bytes) {
  if (bytes == nullptr) {
    return InvalidArgument("null frame buffer");
  }
  SAND_ASSIGN_OR_RETURN(auto shape, ParseHeader(*bytes));
  Frame frame;
  frame.height_ = shape[0];
  frame.width_ = shape[1];
  frame.channels_ = shape[2];
  frame.size_ = static_cast<size_t>(shape[0]) * shape[1] * shape[2];
  frame.data_ = std::move(bytes);
  frame.offset_ = kHeaderBytes;
  frame.owned_ = false;  // aliases cache-resident bytes: clone before writes
  return frame;
}

}  // namespace sand
