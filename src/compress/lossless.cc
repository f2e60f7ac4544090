#include "src/compress/lossless.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "src/obs/metrics.h"

namespace sand {
namespace {

constexpr std::array<uint8_t, 4> kMagic = {'S', 'L', 'Z', '1'};
constexpr size_t kHeaderSize = 4 + 4 + 4 + 1;  // magic + raw_size + stride + bpp
constexpr size_t kMaxWindow = 65535;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 130;
constexpr size_t kMaxLiteralRun = 128;

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

// Applies `filter` to one row; prev is the prior raw row (empty for row 0).
void FilterRow(Filter filter, std::span<const uint8_t> row, std::span<const uint8_t> prev,
               size_t bpp, std::vector<uint8_t>& out) {
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
    out.push_back(static_cast<uint8_t>(row[i] - pred));
  }
}

// Inverse of FilterRow for the Average and Paeth filters, in place, a byte
// at a time; UnfilterInto has specialised loops for the other three.
void UnfilterAverageOrPaeth(Filter filter, std::span<uint8_t> row,
                            std::span<const uint8_t> prev, size_t bpp) {
  for (size_t i = 0; i < row.size(); ++i) {
    int left = i >= bpp ? row[i - bpp] : 0;
    int up = !prev.empty() ? prev[i] : 0;
    int up_left = (!prev.empty() && i >= bpp) ? prev[i - bpp] : 0;
    int pred = filter == kAverage ? (left + up) / 2 : PaethPredict(left, up, up_left);
    row[i] = static_cast<uint8_t>(row[i] + pred);
  }
}

// Sum of absolute signed residuals; the standard PNG filter heuristic.
uint64_t ResidualCost(std::span<const uint8_t> filtered, size_t begin, size_t len) {
  uint64_t cost = 0;
  for (size_t i = begin; i < begin + len; ++i) {
    int8_t s = static_cast<int8_t>(filtered[i]);
    cost += static_cast<uint64_t>(s < 0 ? -s : s);
  }
  return cost;
}

// --- LZ+RLE entropy stage -------------------------------------------------
//
// Token stream:
//   control byte c:
//     c < 0x80  -> literal run of (c + 1) bytes follows            [1..128]
//     c >= 0x80 -> match of length ((c & 0x7f) + kMinMatch)        [3..130]
//                  followed by a 2-byte little-endian distance     [1..65535]

uint32_t Hash3(const uint8_t* p) {
  uint32_t v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> 18;  // 14-bit table
}

std::vector<uint8_t> LzCompress(std::span<const uint8_t> in) {
  std::vector<uint8_t> out;
  out.reserve(in.size() / 2 + 16);
  constexpr size_t kTableSize = 1 << 14;
  std::vector<int64_t> table(kTableSize, -1);

  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    size_t pos = literal_start;
    while (pos < end) {
      size_t run = std::min(end - pos, kMaxLiteralRun);
      out.push_back(static_cast<uint8_t>(run - 1));
      out.insert(out.end(), in.begin() + pos, in.begin() + pos + run);
      pos += run;
    }
  };

  size_t i = 0;
  while (i + kMinMatch <= in.size()) {
    uint32_t h = Hash3(&in[i]);
    int64_t cand = table[h];
    table[h] = static_cast<int64_t>(i);
    size_t match_len = 0;
    if (cand >= 0 && i - static_cast<size_t>(cand) <= kMaxWindow) {
      size_t dist = i - static_cast<size_t>(cand);
      size_t limit = std::min(kMaxMatch, in.size() - i);
      while (match_len < limit && in[cand + match_len] == in[i + match_len]) {
        ++match_len;
      }
      if (match_len >= kMinMatch) {
        flush_literals(i);
        out.push_back(static_cast<uint8_t>(0x80 | (match_len - kMinMatch)));
        out.push_back(static_cast<uint8_t>(dist & 0xff));
        out.push_back(static_cast<uint8_t>(dist >> 8));
        i += match_len;
        literal_start = i;
        continue;
      }
    }
    ++i;
  }
  flush_literals(in.size());
  return out;
}

// --- Order-0 canonical Huffman stage ---------------------------------------
//
// The LZ stage leaves filter residuals mostly as literal runs; their
// distribution is heavily skewed toward small magnitudes, which a Huffman
// pass converts into the 2-4x ratios a real PNG-class codec reaches on
// video frames. Format: flag byte (0 = stored raw, 1 = huffman), u32
// payload size, 256 nibble-packed code lengths (huffman only), bitstream.

constexpr int kMaxCodeLength = 15;

// Computes depth-limited code lengths for the symbol histogram by
// repeatedly halving frequencies until the Huffman tree fits (zlib trick).
std::array<uint8_t, 256> HuffmanCodeLengths(std::array<uint64_t, 256> freq) {
  std::array<uint8_t, 256> lengths{};
  while (true) {
    // Build the tree with a simple two-array merge over node indices.
    struct Node {
      uint64_t weight;
      int left = -1;
      int right = -1;
      int symbol = -1;
    };
    std::vector<Node> nodes;
    std::vector<int> heap;  // indices, maintained as a min-heap by weight
    auto cmp = [&nodes](int a, int b) { return nodes[a].weight > nodes[b].weight; };
    for (int s = 0; s < 256; ++s) {
      if (freq[s] > 0) {
        nodes.push_back(Node{freq[s], -1, -1, s});
        heap.push_back(static_cast<int>(nodes.size()) - 1);
      }
    }
    if (heap.empty()) {
      return lengths;
    }
    if (heap.size() == 1) {
      lengths[static_cast<size_t>(nodes[heap[0]].symbol)] = 1;
      return lengths;
    }
    std::make_heap(heap.begin(), heap.end(), cmp);
    while (heap.size() > 1) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      int a = heap.back();
      heap.pop_back();
      std::pop_heap(heap.begin(), heap.end(), cmp);
      int b = heap.back();
      heap.pop_back();
      nodes.push_back(Node{nodes[a].weight + nodes[b].weight, a, b, -1});
      heap.push_back(static_cast<int>(nodes.size()) - 1);
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
    // Depths by DFS from the root.
    int max_depth = 0;
    std::array<uint8_t, 256> tentative{};
    std::vector<std::pair<int, int>> stack = {{heap[0], 0}};
    while (!stack.empty()) {
      auto [node, depth] = stack.back();
      stack.pop_back();
      if (nodes[node].symbol >= 0) {
        tentative[static_cast<size_t>(nodes[node].symbol)] =
            static_cast<uint8_t>(std::max(depth, 1));
        max_depth = std::max(max_depth, std::max(depth, 1));
      } else {
        stack.push_back({nodes[node].left, depth + 1});
        stack.push_back({nodes[node].right, depth + 1});
      }
    }
    if (max_depth <= kMaxCodeLength) {
      return tentative;
    }
    for (auto& f : freq) {
      if (f > 1) {
        f = (f + 1) / 2;
      }
    }
  }
}

// Canonical code assignment from lengths (shorter codes first, then symbol
// order). Returns per-symbol (code, length).
std::array<std::pair<uint16_t, uint8_t>, 256> CanonicalCodes(
    const std::array<uint8_t, 256>& lengths) {
  std::array<std::pair<uint16_t, uint8_t>, 256> codes{};
  uint16_t code = 0;
  for (int len = 1; len <= kMaxCodeLength; ++len) {
    for (int s = 0; s < 256; ++s) {
      if (lengths[static_cast<size_t>(s)] == len) {
        codes[static_cast<size_t>(s)] = {code, static_cast<uint8_t>(len)};
        ++code;
      }
    }
    code <<= 1;
  }
  return codes;
}

std::vector<uint8_t> EntropyEncode(std::span<const uint8_t> in) {
  std::vector<uint8_t> out;
  out.reserve(in.size() / 2 + 160);
  out.push_back(1);  // huffman flag (candidate)
  out.push_back(static_cast<uint8_t>(in.size()));
  out.push_back(static_cast<uint8_t>(in.size() >> 8));
  out.push_back(static_cast<uint8_t>(in.size() >> 16));
  out.push_back(static_cast<uint8_t>(in.size() >> 24));

  std::array<uint64_t, 256> freq{};
  for (uint8_t byte : in) {
    ++freq[byte];
  }
  std::array<uint8_t, 256> lengths = HuffmanCodeLengths(freq);
  for (int s = 0; s < 256; s += 2) {
    out.push_back(static_cast<uint8_t>(lengths[static_cast<size_t>(s)] |
                                       (lengths[static_cast<size_t>(s + 1)] << 4)));
  }
  auto codes = CanonicalCodes(lengths);
  uint64_t bit_buffer = 0;
  int bit_count = 0;
  for (uint8_t byte : in) {
    auto [code, len] = codes[byte];
    bit_buffer = (bit_buffer << len) | code;
    bit_count += len;
    while (bit_count >= 8) {
      out.push_back(static_cast<uint8_t>(bit_buffer >> (bit_count - 8)));
      bit_count -= 8;
    }
  }
  if (bit_count > 0) {
    out.push_back(static_cast<uint8_t>(bit_buffer << (8 - bit_count)));
  }
  if (out.size() >= in.size() + 5) {
    // Incompressible: store raw.
    out.clear();
    out.push_back(0);
    out.push_back(static_cast<uint8_t>(in.size()));
    out.push_back(static_cast<uint8_t>(in.size() >> 8));
    out.push_back(static_cast<uint8_t>(in.size() >> 16));
    out.push_back(static_cast<uint8_t>(in.size() >> 24));
    out.insert(out.end(), in.begin(), in.end());
  }
  return out;
}

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

// --- Table-driven decoding -------------------------------------------------
//
// The bit-serial decoder this replaces is kept as lossless_reference; the
// two produce identical bytes and the same ok/error outcome on every input.

constexpr size_t kEntropyHeaderSize = 5;  // flag + u32 raw size
constexpr size_t kCodeLengthBytes = 128;  // 256 nibble-packed code lengths
constexpr int kTableBits = 11;
// Bytes past the logical end of the LZ output buffer: an 8-byte match word
// may run up to 7 bytes beyond the match it copies.
constexpr size_t kLzSlack = 8;

uint64_t LoadBigEndian64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// MSB-first reader over the Huffman bitstream. `bits` holds `count` valid
// bits at its top; the bits below them are zero or already equal to the
// stream bits that follow, so both refills may OR bytes in again.
struct BitReader {
  const uint8_t* next;
  const uint8_t* end;
  uint64_t bits = 0;
  int count = 0;

  // Tops the buffer up to >= 56 bits with one load; needs 8 bytes at next.
  void RefillWord() {
    bits |= LoadBigEndian64(next) >> count;
    next += (63 - count) >> 3;
    count |= 56;
  }
  // The same, a byte at a time, for the tail of the stream.
  void RefillBytes() {
    while (count < 56 && next < end) {
      bits |= static_cast<uint64_t>(*next++) << (56 - count);
      count += 8;
    }
  }
  uint32_t Peek() const { return static_cast<uint32_t>(bits >> (64 - kTableBits)); }
  void Consume(int n) {
    bits <<= n;
    count -= n;
  }
};

// Canonical Huffman decoding state for one stream's code lengths.
class HuffmanDecoder {
 public:
  explicit HuffmanDecoder(std::span<const uint8_t> packed_lengths) {
    std::array<uint8_t, 256> lengths{};
    for (size_t s = 0; s < 256; s += 2) {
      lengths[s] = packed_lengths[s / 2] & 0x0f;
      lengths[s + 1] = packed_lengths[s / 2] >> 4;
    }
    for (uint8_t len : lengths) {
      if (len > 0) {
        ++count_at_len_[len];
      }
    }
    // Canonical assignment in the encoder's order (length, then symbol),
    // with the same 16-bit wraparound on over-subscribed length tables.
    std::array<uint16_t, kMaxCodeLength + 1> cursor{};
    uint16_t code = 0;
    uint16_t index = 0;
    for (int len = 1; len <= kMaxCodeLength; ++len) {
      first_code_[len] = code;
      first_index_[len] = index;
      cursor[len] = index;
      code = static_cast<uint16_t>((code + count_at_len_[len]) << 1);
      index = static_cast<uint16_t>(index + count_at_len_[len]);
    }
    for (size_t s = 0; s < 256; ++s) {
      if (lengths[s] > 0) {
        symbols_by_code_[cursor[lengths[s]]++] = static_cast<uint8_t>(s);
      }
    }
    // A table slot holds the code the bit-serial walk would match first:
    // filling from the longest length down lets shorter codes win.
    for (int len = kTableBits; len >= 1; --len) {
      const uint32_t first = first_code_[len];
      const uint32_t last = std::min<uint32_t>(first + count_at_len_[len], 1u << len);
      const int spread = kTableBits - len;
      for (uint32_t c = first; c < last; ++c) {
        const uint16_t entry = static_cast<uint16_t>(
            (len << 8) | symbols_by_code_[first_index_[len] + (c - first)]);
        std::fill(table_.begin() + (c << spread), table_.begin() + ((c + 1) << spread), entry);
      }
    }
  }

  Status Decode(BitReader& reader, std::span<uint8_t> out) const {
    uint8_t* dst = out.data();
    size_t n = 0;
    // Four table hits use at most 44 of the >= 56 bits one refill loads.
    while (out.size() - n >= 4 && reader.end - reader.next >= 8) {
      reader.RefillWord();
      int hits = 0;
      for (; hits < 4; ++hits) {
        const uint16_t entry = table_[reader.Peek()];
        if (entry == 0) {
          break;
        }
        dst[n++] = static_cast<uint8_t>(entry);
        reader.Consume(entry >> 8);
      }
      if (hits < 4) {
        SAND_ASSIGN_OR_RETURN(dst[n], Walk(reader));
        ++n;
      }
    }
    while (n < out.size()) {
      if (reader.count < kTableBits) {
        reader.RefillBytes();
      }
      const uint16_t entry = table_[reader.Peek()];
      if (entry != 0 && (entry >> 8) <= reader.count) {
        dst[n++] = static_cast<uint8_t>(entry);
        reader.Consume(entry >> 8);
      } else {
        SAND_ASSIGN_OR_RETURN(dst[n], Walk(reader));
        ++n;
      }
    }
    return Status::Ok();
  }

 private:
  // One symbol, a bit at a time: codes longer than the table, and every
  // malformed or truncated code, with the reference decoder's checks.
  Result<uint8_t> Walk(BitReader& reader) const {
    uint16_t code = 0;
    for (int len = 1;; ++len) {
      if (reader.count == 0) {
        reader.RefillBytes();
        if (reader.count == 0) {
          return DataLoss("entropy bitstream truncated");
        }
      }
      code = static_cast<uint16_t>((code << 1) | (reader.bits >> 63));
      reader.Consume(1);
      if (len > kMaxCodeLength) {
        return DataLoss("invalid huffman code");
      }
      const uint16_t offset = code - first_code_[len];
      if (count_at_len_[len] > 0 && code >= first_code_[len] && offset < count_at_len_[len]) {
        return symbols_by_code_[first_index_[len] + offset];
      }
    }
  }

  std::array<uint16_t, kMaxCodeLength + 1> first_code_{};
  std::array<uint16_t, kMaxCodeLength + 1> first_index_{};
  std::array<uint16_t, kMaxCodeLength + 1> count_at_len_{};
  std::array<uint8_t, 256> symbols_by_code_{};
  // (length << 8) | symbol, or 0 where no code of <= kTableBits bits matches.
  std::array<uint16_t, 1 << kTableBits> table_{};
};

Result<std::vector<uint8_t>> EntropyDecode(std::span<const uint8_t> in) {
  if (in.size() < kEntropyHeaderSize) {
    return DataLoss("entropy stream truncated");
  }
  const uint8_t flag = in[0];
  const size_t raw_size = GetU32(in, 1);
  if (flag == 0) {
    if (in.size() - kEntropyHeaderSize != raw_size) {
      return DataLoss("stored block size mismatch");
    }
    return std::vector<uint8_t>(in.begin() + kEntropyHeaderSize, in.end());
  }
  if (flag != 1 || in.size() < kEntropyHeaderSize + kCodeLengthBytes) {
    return DataLoss("bad entropy block header");
  }
  const std::span<const uint8_t> bitstream = in.subspan(kEntropyHeaderSize + kCodeLengthBytes);
  // Every symbol costs at least one bit: bound the output before sizing it.
  if (raw_size > 8 * bitstream.size()) {
    return DataLoss("entropy raw size exceeds the bitstream");
  }
  const HuffmanDecoder decoder(in.subspan(kEntropyHeaderSize, kCodeLengthBytes));
  BitReader reader{bitstream.data(), bitstream.data() + bitstream.size()};
  std::vector<uint8_t> out(raw_size);
  SAND_RETURN_IF_ERROR(decoder.Decode(reader, out));
  return out;
}

// Returns expected_size bytes followed by kLzSlack bytes of scratch.
Result<std::vector<uint8_t>> LzDecompress(std::span<const uint8_t> in, size_t expected_size) {
  // A 3-byte match token yields at most kMaxMatch bytes.
  if (expected_size > kMaxMatch * ((in.size() + 2) / 3)) {
    return DataLoss("lz expected size exceeds what the stream can encode");
  }
  std::vector<uint8_t> out(expected_size + kLzSlack);
  uint8_t* const base = out.data();
  size_t n = 0;
  size_t i = 0;
  while (i < in.size()) {
    const uint8_t ctrl = in[i++];
    if (ctrl < 0x80) {
      const size_t run = static_cast<size_t>(ctrl) + 1;
      if (i + run > in.size()) {
        return DataLoss("lz literal run truncated");
      }
      if (run > expected_size - n) {
        return DataLoss("lz output size mismatch");
      }
      std::memcpy(base + n, in.data() + i, run);
      n += run;
      i += run;
      continue;
    }
    const size_t len = static_cast<size_t>(ctrl & 0x7f) + kMinMatch;
    if (i + 2 > in.size()) {
      return DataLoss("lz match header truncated");
    }
    const size_t dist = static_cast<size_t>(in[i]) | (static_cast<size_t>(in[i + 1]) << 8);
    i += 2;
    if (dist == 0 || dist > n) {
      return DataLoss("lz match distance out of range");
    }
    if (len > expected_size - n) {
      return DataLoss("lz output size mismatch");
    }
    uint8_t* dst = base + n;
    const uint8_t* src = dst - dist;
    if (dist >= 8) {
      // Each word reads only bytes already written; the last may spill up
      // to 7 bytes into the slack (or into bytes later tokens overwrite).
      for (size_t k = 0; k < len; k += 8) {
        std::memcpy(dst + k, src + k, 8);
      }
    } else {
      for (size_t k = 0; k < len; ++k) {
        dst[k] = src[k];  // overlapping copies are intentional
      }
    }
    n += len;
  }
  if (n != expected_size) {
    return DataLoss("lz output size mismatch");
  }
  return out;
}

// Reconstructs one row from its filtered bytes (`prev` is null on row 0).
void UnfilterInto(Filter filter, const uint8_t* __restrict src, uint8_t* __restrict row,
                  const uint8_t* __restrict prev, size_t stride, size_t bpp) {
  if (filter == kNone || (filter == kUp && prev == nullptr)) {
    std::memcpy(row, src, stride);
  } else if (filter == kSub) {
    const size_t head = std::min(bpp, stride);
    std::memcpy(row, src, head);
    for (size_t i = head; i < stride; ++i) {
      row[i] = static_cast<uint8_t>(src[i] + row[i - bpp]);
    }
  } else if (filter == kUp) {
    for (size_t i = 0; i < stride; ++i) {
      row[i] = static_cast<uint8_t>(src[i] + prev[i]);
    }
  } else {
    std::memcpy(row, src, stride);
    UnfilterAverageOrPaeth(filter, std::span<uint8_t>(row, stride),
                           prev != nullptr ? std::span<const uint8_t>(prev, stride)
                                           : std::span<const uint8_t>(),
                           bpp);
  }
}

Result<std::vector<uint8_t>> CompressImpl(std::span<const uint8_t> data, size_t stride,
                                          size_t bpp) {
  if (stride == 0 || data.size() % stride != 0) {
    return InvalidArgument("LosslessCompress: stride must divide data size");
  }
  if (bpp == 0 || bpp > 255) {
    return InvalidArgument("LosslessCompress: bad bpp");
  }
  const size_t rows = data.size() / stride;

  // Per row: pick the filter with the smallest residual cost, emit the
  // filter id followed by the filtered bytes.
  std::vector<uint8_t> filtered;
  filtered.reserve(data.size() + rows);
  std::vector<uint8_t> scratch;
  scratch.reserve(stride * 5);
  for (size_t r = 0; r < rows; ++r) {
    std::span<const uint8_t> row = data.subspan(r * stride, stride);
    std::span<const uint8_t> prev =
        r > 0 ? data.subspan((r - 1) * stride, stride) : std::span<const uint8_t>();
    scratch.clear();
    uint64_t best_cost = UINT64_MAX;
    Filter best = kNone;
    for (Filter f : {kNone, kSub, kUp, kAverage, kPaeth}) {
      size_t begin = scratch.size();
      FilterRow(f, row, prev, bpp, scratch);
      uint64_t cost = ResidualCost(scratch, begin, stride);
      if (cost < best_cost) {
        best_cost = cost;
        best = f;
      }
    }
    filtered.push_back(static_cast<uint8_t>(best));
    size_t offset = static_cast<size_t>(best) * stride;
    filtered.insert(filtered.end(), scratch.begin() + offset, scratch.begin() + offset + stride);
  }

  std::vector<uint8_t> out;
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  PutU32(out, static_cast<uint32_t>(data.size()));
  PutU32(out, static_cast<uint32_t>(stride));
  out.push_back(static_cast<uint8_t>(bpp));
  std::vector<uint8_t> entropy = EntropyEncode(LzCompress(filtered));
  out.insert(out.end(), entropy.begin(), entropy.end());
  return out;
}

}  // namespace

namespace {

// Feeds the registry's process-wide compression ratio (the CompressionStats
// struct remains as the value type callers aggregate locally).
struct CompressMetrics {
  obs::Counter* raw_bytes;
  obs::Counter* compressed_bytes;
  obs::Counter* decompress_ops;

  static const CompressMetrics& Get() {
    static const CompressMetrics metrics{
        obs::Registry::Get().GetCounter("sand.compress.raw_bytes"),
        obs::Registry::Get().GetCounter("sand.compress.compressed_bytes"),
        obs::Registry::Get().GetCounter("sand.compress.decompress_ops"),
    };
    return metrics;
  }
};

}  // namespace

Result<std::vector<uint8_t>> LosslessCompress(std::span<const uint8_t> data, size_t stride) {
  Result<std::vector<uint8_t>> out = CompressImpl(data, stride, 1);
  if (out.ok()) {
    CompressMetrics::Get().raw_bytes->Add(data.size());
    CompressMetrics::Get().compressed_bytes->Add(out->size());
  }
  return out;
}

Result<std::vector<uint8_t>> LosslessDecompress(std::span<const uint8_t> compressed) {
  CompressMetrics::Get().decompress_ops->Add(1);
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
    const uint8_t* src = &filtered[r * (stride + 1)];
    if (src[0] > kPaeth) {
      return DataLoss("LosslessDecompress: bad filter id");
    }
    uint8_t* row = out.data() + r * stride;
    UnfilterInto(static_cast<Filter>(src[0]), src + 1, row, r > 0 ? row - stride : nullptr,
                 stride, bpp);
  }
  return out;
}

Result<std::vector<uint8_t>> CompressFrame(const Frame& frame) {
  if (frame.empty()) {
    return InvalidArgument("CompressFrame: empty frame");
  }
  // Prefix the compressed pixels with the frame shape so DecompressFrame is
  // self-contained.
  size_t stride = static_cast<size_t>(frame.width()) * frame.channels();
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> pixels,
                        CompressImpl(frame.data(), stride, frame.channels()));
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(frame.height()));
  PutU32(out, static_cast<uint32_t>(frame.width()));
  PutU32(out, static_cast<uint32_t>(frame.channels()));
  out.insert(out.end(), pixels.begin(), pixels.end());
  return out;
}

Result<Frame> DecompressFrame(std::span<const uint8_t> compressed) {
  if (compressed.size() < 12) {
    return DataLoss("DecompressFrame: truncated");
  }
  int h = static_cast<int>(GetU32(compressed, 0));
  int w = static_cast<int>(GetU32(compressed, 4));
  int c = static_cast<int>(GetU32(compressed, 8));
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> pixels,
                        LosslessDecompress(compressed.subspan(12)));
  return Frame::FromPixels(h, w, c, std::move(pixels));
}

}  // namespace sand
