// Bit-serial reference implementation of LosslessDecompress (the decoder
// that preceded the table-driven one in lossless.cc). Kept in its own
// translation unit, compiled at the project's default optimization level:
// compress_test asserts the fast decoder byte-identical to it (and equal in
// ok/error outcome on mutated streams), and bench_micro_substrates times
// both from one binary. No production code calls it.
//
// The only additions over the original are the two header-size bounds,
// which reject streams this walk would fail on anyway (see lossless.h), so
// a hostile header cannot make a test reserve gigabytes.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>

#include "src/compress/lossless.h"

namespace sand {
namespace {

constexpr std::array<uint8_t, 4> kMagic = {'S', 'L', 'Z', '1'};
constexpr size_t kHeaderSize = 4 + 4 + 4 + 1;  // magic + raw_size + stride + bpp
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 130;
constexpr int kMaxCodeLength = 15;

enum Filter : uint8_t {
  kNone = 0,
  kSub = 1,
  kUp = 2,
  kAverage = 3,
  kPaeth = 4,
};

uint8_t PaethPredict(int a, int b, int c) {
  int p = a + b - c;
  int pa = std::abs(p - a);
  int pb = std::abs(p - b);
  int pc = std::abs(p - c);
  if (pa <= pb && pa <= pc) {
    return static_cast<uint8_t>(a);
  }
  if (pb <= pc) {
    return static_cast<uint8_t>(b);
  }
  return static_cast<uint8_t>(c);
}

void UnfilterRow(Filter filter, std::span<uint8_t> row, std::span<const uint8_t> prev,
                 size_t bpp) {
  for (size_t i = 0; i < row.size(); ++i) {
    int left = i >= bpp ? row[i - bpp] : 0;
    int up = !prev.empty() ? prev[i] : 0;
    int up_left = (!prev.empty() && i >= bpp) ? prev[i - bpp] : 0;
    int pred = 0;
    switch (filter) {
      case kNone:
        pred = 0;
        break;
      case kSub:
        pred = left;
        break;
      case kUp:
        pred = up;
        break;
      case kAverage:
        pred = (left + up) / 2;
        break;
      case kPaeth:
        pred = PaethPredict(left, up, up_left);
        break;
    }
    row[i] = static_cast<uint8_t>(row[i] + pred);
  }
}

Result<std::vector<uint8_t>> LzDecompress(std::span<const uint8_t> in, size_t expected_size) {
  if (expected_size > kMaxMatch * ((in.size() + 2) / 3)) {
    return DataLoss("lz expected size exceeds what the stream can encode");
  }
  std::vector<uint8_t> out;
  out.reserve(expected_size);
  size_t i = 0;
  while (i < in.size()) {
    uint8_t ctrl = in[i++];
    if (ctrl < 0x80) {
      size_t run = static_cast<size_t>(ctrl) + 1;
      if (i + run > in.size()) {
        return DataLoss("lz literal run truncated");
      }
      out.insert(out.end(), in.begin() + i, in.begin() + i + run);
      i += run;
    } else {
      size_t len = static_cast<size_t>(ctrl & 0x7f) + kMinMatch;
      if (i + 2 > in.size()) {
        return DataLoss("lz match header truncated");
      }
      size_t dist = static_cast<size_t>(in[i]) | (static_cast<size_t>(in[i + 1]) << 8);
      i += 2;
      if (dist == 0 || dist > out.size()) {
        return DataLoss("lz match distance out of range");
      }
      size_t src = out.size() - dist;
      for (size_t k = 0; k < len; ++k) {
        out.push_back(out[src + k]);  // overlapping copies are intentional
      }
    }
  }
  if (out.size() != expected_size) {
    return DataLoss("lz output size mismatch");
  }
  return out;
}

Result<std::vector<uint8_t>> EntropyDecode(std::span<const uint8_t> in) {
  if (in.size() < 5) {
    return DataLoss("entropy stream truncated");
  }
  uint8_t flag = in[0];
  size_t raw_size = static_cast<size_t>(in[1]) | (static_cast<size_t>(in[2]) << 8) |
                    (static_cast<size_t>(in[3]) << 16) | (static_cast<size_t>(in[4]) << 24);
  if (flag == 0) {
    if (in.size() - 5 != raw_size) {
      return DataLoss("stored block size mismatch");
    }
    return std::vector<uint8_t>(in.begin() + 5, in.end());
  }
  if (flag != 1 || in.size() < 5 + 128) {
    return DataLoss("bad entropy block header");
  }
  if (raw_size > 8 * (in.size() - 5 - 128)) {
    return DataLoss("entropy raw size exceeds the bitstream");
  }
  std::array<uint8_t, 256> lengths{};
  for (int s = 0; s < 256; s += 2) {
    uint8_t packed = in[5 + static_cast<size_t>(s) / 2];
    lengths[static_cast<size_t>(s)] = packed & 0x0f;
    lengths[static_cast<size_t>(s + 1)] = packed >> 4;
  }
  // Decode table: (length, code) -> symbol, via first-code arithmetic
  // over the canonical code assignment.
  std::array<uint16_t, kMaxCodeLength + 2> first_code{};
  std::array<uint16_t, kMaxCodeLength + 2> first_index{};
  std::vector<uint8_t> symbols_by_code;
  {
    uint16_t code = 0;
    uint16_t index = 0;
    for (int len = 1; len <= kMaxCodeLength; ++len) {
      first_code[static_cast<size_t>(len)] = code;
      first_index[static_cast<size_t>(len)] = index;
      for (int s = 0; s < 256; ++s) {
        if (lengths[static_cast<size_t>(s)] == len) {
          symbols_by_code.push_back(static_cast<uint8_t>(s));
          ++code;
          ++index;
        }
      }
      code <<= 1;
    }
  }
  std::array<uint16_t, kMaxCodeLength + 1> count_at_len{};
  for (int s = 0; s < 256; ++s) {
    if (lengths[static_cast<size_t>(s)] > 0) {
      ++count_at_len[lengths[static_cast<size_t>(s)]];
    }
  }

  std::vector<uint8_t> out;
  out.reserve(raw_size);
  size_t pos = 5 + 128;
  uint32_t bits = 0;
  int have = 0;
  uint16_t code = 0;
  int len = 0;
  while (out.size() < raw_size) {
    if (have == 0) {
      if (pos >= in.size()) {
        return DataLoss("entropy bitstream truncated");
      }
      bits = in[pos++];
      have = 8;
    }
    code = static_cast<uint16_t>((code << 1) | ((bits >> (have - 1)) & 1));
    --have;
    ++len;
    if (len > kMaxCodeLength) {
      return DataLoss("invalid huffman code");
    }
    uint16_t offset = code - first_code[static_cast<size_t>(len)];
    if (count_at_len[static_cast<size_t>(len)] > 0 &&
        code >= first_code[static_cast<size_t>(len)] &&
        offset < count_at_len[static_cast<size_t>(len)]) {
      out.push_back(symbols_by_code[first_index[static_cast<size_t>(len)] + offset]);
      code = 0;
      len = 0;
    }
  }
  return out;
}

uint32_t GetU32(std::span<const uint8_t> in, size_t offset) {
  return static_cast<uint32_t>(in[offset]) | (static_cast<uint32_t>(in[offset + 1]) << 8) |
         (static_cast<uint32_t>(in[offset + 2]) << 16) |
         (static_cast<uint32_t>(in[offset + 3]) << 24);
}

}  // namespace

namespace lossless_reference {

Result<std::vector<uint8_t>> LosslessDecompress(std::span<const uint8_t> compressed) {
  if (compressed.size() < kHeaderSize ||
      !std::equal(kMagic.begin(), kMagic.end(), compressed.begin())) {
    return DataLoss("LosslessDecompress: bad header");
  }
  size_t raw_size = GetU32(compressed, 4);
  size_t stride = GetU32(compressed, 8);
  size_t bpp = compressed[12];
  if (stride == 0 || bpp == 0 || raw_size % stride != 0) {
    return DataLoss("LosslessDecompress: corrupt header");
  }
  const size_t rows = raw_size / stride;
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> lz_stream,
                        EntropyDecode(compressed.subspan(kHeaderSize)));
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> filtered,
                        LzDecompress(lz_stream, raw_size + rows));

  std::vector<uint8_t> out(raw_size);
  for (size_t r = 0; r < rows; ++r) {
    uint8_t filter_id = filtered[r * (stride + 1)];
    if (filter_id > kPaeth) {
      return DataLoss("LosslessDecompress: bad filter id");
    }
    std::memcpy(&out[r * stride], &filtered[r * (stride + 1) + 1], stride);
    std::span<uint8_t> row(&out[r * stride], stride);
    std::span<const uint8_t> prev =
        r > 0 ? std::span<const uint8_t>(&out[(r - 1) * stride], stride)
              : std::span<const uint8_t>();
    UnfilterRow(static_cast<Filter>(filter_id), row, prev, bpp);
  }
  return out;
}

}  // namespace lossless_reference
}  // namespace sand
