#include "src/workloads/lossless_corpus.h"

#include <algorithm>
#include <array>
#include <span>

#include "src/codec/video_codec.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/compress/lossless.h"
#include "src/compress/lossy.h"
#include "src/storage/object_store.h"

namespace sand {
namespace {

uint64_t GetLe(std::span<const uint8_t> in, size_t at, int bytes) {
  uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) {
    v = (v << 8) | in[at + static_cast<size_t>(i)];
  }
  return v;
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

// Appends every frame payload of an SVC1 container (layout in
// video_codec.h) as its own entry.
Status AddFramePayloads(const std::string& video, std::span<const uint8_t> container,
                        std::vector<LosslessCorpusEntry>& out) {
  constexpr size_t kHeader = 16;
  constexpr size_t kIndexEntry = 13;
  if (container.size() < kHeader) {
    return DataLoss("corpus: SVC1 header truncated");
  }
  const uint64_t frames = GetLe(container, 12, 4);
  const size_t base = kHeader + frames * kIndexEntry;
  if (container.size() < base) {
    return DataLoss("corpus: SVC1 index truncated");
  }
  for (uint64_t f = 0; f < frames; ++f) {
    const size_t at = kHeader + f * kIndexEntry;
    const bool intra = container[at] == static_cast<uint8_t>(FrameType::kIntra);
    const uint64_t offset = GetLe(container, at + 1, 8);
    const uint64_t size = GetLe(container, at + 9, 4);
    if (offset > container.size() - base || size > container.size() - base - offset) {
      return DataLoss("corpus: SVC1 payload out of range");
    }
    const auto begin = container.begin() + static_cast<ptrdiff_t>(base + offset);
    out.push_back({StrFormat("%s/f%llu/%s", video.c_str(), static_cast<unsigned long long>(f),
                             intra ? "intra" : "delta"),
                   std::vector<uint8_t>(begin, begin + static_cast<ptrdiff_t>(size))});
  }
  return Status::Ok();
}

// The SLZ1 body of a lossless SCO1 container: the payload (layout in
// lossy.cc) is u16 prefix_len | prefix | SLZ1.
Result<std::vector<uint8_t>> Sco1Body(std::span<const uint8_t> container) {
  constexpr size_t kContainerHeader = 16;
  if (container.size() < kContainerHeader + 8) {
    return DataLoss("corpus: SCO1 container truncated");
  }
  const size_t at = kContainerHeader + 2 + GetLe(container, kContainerHeader, 2);
  if (at > container.size()) {
    return DataLoss("corpus: SCO1 body out of range");
  }
  return std::vector<uint8_t>(container.begin() + static_cast<ptrdiff_t>(at), container.end());
}

// A frame's pixels as plane-major `bits`-bit codes: each channel plane is
// quantized against its own range (zero point its minimum, step its range
// over levels - 1), and 4-bit codes are packed two to a byte, low nibble
// first. Few symbols in nibble pairs are statistics pixel rows lack.
std::vector<uint8_t> QuantizedCodes(const Frame& frame, int bits) {
  const std::span<const uint8_t> pixels = frame.data();
  const size_t channels = static_cast<size_t>(frame.channels());
  const size_t plane = pixels.size() / channels;
  const int levels = 1 << bits;
  const float max_code = static_cast<float>(levels - 1);
  std::vector<uint8_t> codes(pixels.size());
  for (size_t c = 0; c < channels; ++c) {
    uint8_t lo = 255;
    uint8_t hi = 0;
    for (size_t i = 0; i < plane; ++i) {
      lo = std::min(lo, pixels[i * channels + c]);
      hi = std::max(hi, pixels[i * channels + c]);
    }
    const float zero = static_cast<float>(lo);
    const float scale = hi > lo ? static_cast<float>(hi - lo) / max_code : 1.0f;
    const float inv = 1.0f / scale;
    for (size_t i = 0; i < plane; ++i) {
      float q = (static_cast<float>(pixels[i * channels + c]) - zero) * inv + 0.5f;
      q = q < 0.0f ? 0.0f : (q > max_code ? max_code : q);
      codes[c * plane + i] = static_cast<uint8_t>(q);
    }
  }
  if (bits == 8) {
    return codes;
  }
  std::vector<uint8_t> packed((codes.size() + 1) / 2);
  for (size_t i = 0; i < codes.size(); ++i) {
    packed[i / 2] |= static_cast<uint8_t>(codes[i] << (4 * (i % 2)));
  }
  return packed;
}

// An LZ token stream (format in lossless.cc) together with the filtered
// bytes it decodes to.
class LzTokens {
 public:
  void Literals(std::span<const uint8_t> bytes, size_t max_run = 128) {
    for (size_t pos = 0; pos < bytes.size(); pos += max_run) {
      const size_t run = std::min(max_run, bytes.size() - pos);
      tokens_.push_back(static_cast<uint8_t>(run - 1));
      tokens_.insert(tokens_.end(), bytes.begin() + static_cast<ptrdiff_t>(pos),
                     bytes.begin() + static_cast<ptrdiff_t>(pos + run));
      decoded_.insert(decoded_.end(), bytes.begin() + static_cast<ptrdiff_t>(pos),
                      bytes.begin() + static_cast<ptrdiff_t>(pos + run));
    }
  }
  // 3 <= len <= 130, 1 <= dist <= decoded().size().
  void Match(size_t len, size_t dist) {
    tokens_.push_back(static_cast<uint8_t>(0x80 | (len - 3)));
    tokens_.push_back(static_cast<uint8_t>(dist & 0xff));
    tokens_.push_back(static_cast<uint8_t>(dist >> 8));
    for (size_t k = 0; k < len; ++k) {
      const uint8_t byte = decoded_[decoded_.size() - dist];
      decoded_.push_back(byte);
    }
  }
  const std::vector<uint8_t>& tokens() const { return tokens_; }
  const std::vector<uint8_t>& decoded() const { return decoded_; }

 private:
  std::vector<uint8_t> tokens_;
  std::vector<uint8_t> decoded_;
};

std::vector<uint8_t> StoredBlock(std::span<const uint8_t> lz) {
  std::vector<uint8_t> out = {0};
  PutU32(out, static_cast<uint32_t>(lz.size()));
  out.insert(out.end(), lz.begin(), lz.end());
  return out;
}

// A Huffman entropy block coding `lz` with the given code lengths, assigned
// canonically as the decoder does (every symbol of `lz` needs a code).
std::vector<uint8_t> HuffmanBlock(std::span<const uint8_t> lz,
                                  const std::array<uint8_t, 256>& lengths) {
  std::vector<uint8_t> out = {1};
  PutU32(out, static_cast<uint32_t>(lz.size()));
  for (size_t s = 0; s < 256; s += 2) {
    out.push_back(static_cast<uint8_t>(lengths[s] | (lengths[s + 1] << 4)));
  }
  std::array<uint16_t, 256> codes{};
  uint16_t code = 0;
  for (int len = 1; len <= 15; ++len) {
    for (size_t s = 0; s < 256; ++s) {
      if (lengths[s] == len) {
        codes[s] = code++;
      }
    }
    code = static_cast<uint16_t>(code << 1);
  }
  uint64_t bits = 0;
  int count = 0;
  for (uint8_t symbol : lz) {
    bits = (bits << lengths[symbol]) | codes[symbol];
    count += lengths[symbol];
    while (count >= 8) {
      out.push_back(static_cast<uint8_t>(bits >> (count - 8)));
      count -= 8;
    }
  }
  if (count > 0) {
    out.push_back(static_cast<uint8_t>(bits << (8 - count)));
  }
  return out;
}

// SLZ1 header over an entropy block whose LZ stream decodes to `filtered`
// (rows of filter id + stride bytes).
std::vector<uint8_t> Slz1(size_t filtered_size, uint32_t stride, uint8_t bpp,
                          std::span<const uint8_t> entropy_block) {
  const size_t rows = filtered_size / (stride + 1);
  std::vector<uint8_t> out = {'S', 'L', 'Z', '1'};
  PutU32(out, static_cast<uint32_t>(rows * stride));
  PutU32(out, stride);
  out.push_back(bpp);
  out.insert(out.end(), entropy_block.begin(), entropy_block.end());
  return out;
}

// `rows` filtered rows, filter ids cycling through none/sub/up/avg/paeth
// from `first_filter`.
std::vector<uint8_t> FilteredRows(size_t rows, size_t stride, Rng& rng,
                                  size_t first_filter = 0) {
  std::vector<uint8_t> out;
  for (size_t r = 0; r < rows; ++r) {
    out.push_back(static_cast<uint8_t>((first_filter + r) % 5));
    for (size_t i = 0; i < stride; ++i) {
      out.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
    }
  }
  return out;
}

// The stream shape LosslessCompress wrote before it kept only matches of 16
// bytes or more, and that SVC1 containers and SCO1 objects written then
// still hold: one sub-filtered row of residual-like bytes (mostly within
// +-2) as 600 matches of 3-15 bytes, each after a 1-8 byte literal run.
// Match distances take turns among four bands: 1-7 (overlapping copies),
// 8-64, 65-4,096 and 4,097 up; while the output is shorter than a band's
// start, that turn draws from 1 up to the output's length. The code gives
// the 8 most frequent token bytes 4 bits, so table slots pair them, the
// next 8 bytes 8 bits and the other 240 9 bits (8/16 + 8/256 + 240/512 =
// 1: a complete code).
LosslessCorpusEntry DenseMatches() {
  Rng rng(0xde75e);
  auto residual = [&rng] {
    const uint64_t magnitude = rng.NextBounded(8) == 0 ? rng.NextBounded(32) : rng.NextBounded(3);
    return static_cast<uint8_t>(rng.NextBounded(2) == 0 ? magnitude : 256 - magnitude);
  };
  LzTokens lz;
  std::vector<uint8_t> run = {1};  // the filter id: sub
  while (run.size() < 8) {
    run.push_back(residual());
  }
  lz.Literals(run);
  constexpr std::array<std::pair<size_t, size_t>, 4> kBands = {
      {{1, 7}, {8, 64}, {65, 4096}, {4097, 65535}}};
  for (size_t m = 0; m < 600; ++m) {
    if (m > 0) {
      run.resize(1 + rng.NextBounded(8));
      for (uint8_t& byte : run) {
        byte = residual();
      }
      lz.Literals(run);
    }
    auto [lo, hi] = kBands[m % kBands.size()];
    hi = std::min(hi, lz.decoded().size());
    if (hi < lo) {
      lo = 1;
    }
    lz.Match(3 + rng.NextBounded(13), lo + rng.NextBounded(hi - lo + 1));
  }

  std::array<uint64_t, 256> freq{};
  for (uint8_t byte : lz.tokens()) {
    ++freq[byte];
  }
  std::array<uint8_t, 256> by_freq{};
  for (size_t s = 0; s < 256; ++s) {
    by_freq[s] = static_cast<uint8_t>(s);
  }
  std::sort(by_freq.begin(), by_freq.end(), [&freq](uint8_t a, uint8_t b) {
    return freq[a] != freq[b] ? freq[a] > freq[b] : a < b;
  });
  std::array<uint8_t, 256> lengths{};
  for (size_t rank = 0; rank < 256; ++rank) {
    lengths[by_freq[rank]] = rank < 8 ? 4 : (rank < 16 ? 8 : 9);
  }
  const uint32_t stride = static_cast<uint32_t>(lz.decoded().size() - 1);
  return {"edge/dense_matches",
          Slz1(lz.decoded().size(), stride, 3, HuffmanBlock(lz.tokens(), lengths))};
}

std::vector<LosslessCorpusEntry> EdgeStreams() {
  std::vector<LosslessCorpusEntry> out;
  Rng rng(0x5eed);
  std::array<uint8_t, 256> flat{};
  flat.fill(8);  // a complete code: every byte value is its own 8-bit code

  out.push_back({"edge/empty", LosslessCompress({}, 1).TakeValue()});
  {
    LzTokens lz;
    lz.Literals(FilteredRows(6, 48, rng));
    out.push_back({"edge/stored_block",
                   Slz1(lz.decoded().size(), 48, 3, StoredBlock(lz.tokens()))});
  }
  {
    // 8 rows of 31 zero bytes behind filter none, as 1-byte literal runs:
    // the token stream is all zeros, a one-symbol alphabet.
    LzTokens lz;
    const std::vector<uint8_t> zero(1, 0);
    for (int i = 0; i < 8 * 32; ++i) {
      lz.Literals(zero);
    }
    std::array<uint8_t, 256> lengths{};
    lengths[0] = 1;
    out.push_back({"edge/one_symbol",
                   Slz1(lz.decoded().size(), 31, 3, HuffmanBlock(lz.tokens(), lengths))});
  }
  {
    // Rows [0, 1..15] as 16-byte literal runs: tokens use symbols 0..15,
    // coded with lengths 1, 2, ..., 14, 15, 15 (a complete code).
    LzTokens lz;
    std::vector<uint8_t> row(16);
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<uint8_t>(i);
    }
    for (int r = 0; r < 24; ++r) {
      lz.Literals(row);
    }
    std::array<uint8_t, 256> lengths{};
    for (size_t s = 0; s < 16; ++s) {
      lengths[s] = static_cast<uint8_t>(std::min<size_t>(s + 1, 15));
    }
    out.push_back({"edge/code_length_15",
                   Slz1(lz.decoded().size(), 15, 3, HuffmanBlock(lz.tokens(), lengths))});
  }
  {
    // One sub-filtered row: matches at every distance below the 8-byte copy
    // word, most overlapping their own output, then word-copied matches
    // with dist < len and lengths that are not multiples of 8.
    LzTokens lz;
    lz.Literals(std::vector<uint8_t>{1, 10, 20, 30, 40, 50, 60, 70});
    const std::array<std::pair<size_t, size_t>, 14> matches = {  // (len, dist)
        {{130, 1}, {5, 2}, {64, 3}, {9, 4}, {100, 5}, {3, 6}, {33, 7},
         {130, 8}, {17, 9}, {24, 12}, {7, 16}, {50, 100}, {130, 300}, {3, 8}}};
    for (const auto& [len, dist] : matches) {
      lz.Match(len, dist);
    }
    const uint32_t stride = static_cast<uint32_t>(lz.decoded().size() - 1);
    out.push_back({"edge/short_matches",
                   Slz1(lz.decoded().size(), stride, 3, HuffmanBlock(lz.tokens(), flat))});
  }
  out.push_back(DenseMatches());
  {
    // Rows of exactly 128 filtered bytes: one maximal literal run each.
    LzTokens lz;
    lz.Literals(FilteredRows(10, 127, rng));
    out.push_back({"edge/literal_runs",
                   Slz1(lz.decoded().size(), 127, 3, HuffmanBlock(lz.tokens(), flat))});
  }
  {
    // bpp 255 over a 40-byte stride: no byte has a left neighbour.
    LzTokens lz;
    lz.Literals(FilteredRows(12, 40, rng));
    out.push_back({"edge/bpp_over_stride",
                   Slz1(lz.decoded().size(), 40, 255, StoredBlock(lz.tokens()))});
  }
  {
    // Mostly-zero rows as 1-byte literal runs: the tokens are bytes 0/1
    // with long runs of 0. Coded once with an over-subscribed table (128
    // one-bit codes, of which only 0 and 1 are reachable, so the 16-bit
    // canonical code wraps to 0 at length 10, where ten 0 bits would match
    // it if the shorter code did not win) and once with an incomplete one
    // (two 2-bit codes).
    LzTokens lz;
    std::vector<uint8_t> rows(3 * 40);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = rng.NextBounded(8) == 0 ? 1 : 0;
    }
    lz.Literals(rows, 1);
    std::array<uint8_t, 256> over{};
    std::fill(over.begin(), over.begin() + 128, 1);
    over[200] = 10;
    out.push_back({"edge/oversubscribed",
                   Slz1(lz.decoded().size(), 2, 1, HuffmanBlock(lz.tokens(), over))});
    std::array<uint8_t, 256> under{};
    under[0] = 2;
    under[1] = 2;
    out.push_back({"edge/incomplete",
                   Slz1(lz.decoded().size(), 2, 1, HuffmanBlock(lz.tokens(), under))});
  }
  // Row 0 under each filter id, which has no row above it, at the two bpp
  // values the decoder has compile-time loops for and at one it does not.
  // The 29-byte stride leaves a partial last pixel at bpp 3 and 4. They
  // draw from `rng` last, so the streams above do not depend on them.
  for (uint8_t bpp : {1, 3, 4}) {
    for (size_t filter = 0; filter < 5; ++filter) {
      LzTokens lz;
      lz.Literals(FilteredRows(7, 29, rng, filter));
      out.push_back({StrFormat("edge/row0/filter%zu_bpp%u", filter, static_cast<unsigned>(bpp)),
                     Slz1(lz.decoded().size(), 29, bpp, HuffmanBlock(lz.tokens(), flat))});
    }
  }
  return out;
}

}  // namespace

Result<std::vector<LosslessCorpusEntry>> BuildLosslessCorpus(
    const SyntheticDatasetOptions& dataset) {
  std::vector<LosslessCorpusEntry> out;
  MemoryStore store;
  SAND_ASSIGN_OR_RETURN(DatasetMeta meta, BuildSyntheticDataset(store, dataset));
  for (const std::string& video : meta.video_names) {
    SAND_ASSIGN_OR_RETURN(SharedBytes container,
                          store.GetShared(dataset.path + "/" + video + ".svc"));
    SAND_RETURN_IF_ERROR(AddFramePayloads(video, *container, out));
  }

  // Serialized frames of the same geometry as the cache tier stores them,
  // then the same frames' pixels as 4- and 8-bit codes.
  ObjectCodec object_codec(CompressionPolicy{.enabled = true});
  for (int bits : {0, 4, 8}) {
    for (int i = 0; i < 2; ++i) {
      const Frame frame = SynthesizeFrame(VideoSeed(dataset.seed, i), 3 * i, dataset.height,
                                          dataset.width, dataset.channels);
      std::vector<uint8_t> body;
      if (bits == 0) {
        SAND_ASSIGN_OR_RETURN(
            std::optional<std::vector<uint8_t>> encoded,
            object_codec.Encode(StrFormat("cache/vid%03d/f%d/ncorpus", i, 3 * i),
                                frame.Serialize()));
        if (!encoded.has_value()) {
          return Internal(StrFormat("corpus: lossless did not encode frame %d", i));
        }
        SAND_ASSIGN_OR_RETURN(body, Sco1Body(*encoded));
      } else {
        const std::vector<uint8_t> codes = QuantizedCodes(frame, bits);
        SAND_ASSIGN_OR_RETURN(body, LosslessCompress(codes, codes.size()));
      }
      out.push_back({bits == 0 ? StrFormat("sco1/lossless/%d", i)
                               : StrFormat("sco1/quant%d/%d", bits, i),
                     std::move(body)});
    }
  }

  for (LosslessCorpusEntry& entry : EdgeStreams()) {
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace sand
