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

// The SLZ1 body of an SCO1 container (payload layouts in lossy.cc):
//   lossless: u16 prefix_len | prefix | SLZ1
//   quant8:   u8 bits | u8 channels | u16 prefix_len | u32 pixels | prefix |
//             channels x (f32 scale, f32 zero) | SLZ1
Result<std::vector<uint8_t>> Sco1Body(std::span<const uint8_t> container, Codec codec) {
  constexpr size_t kContainerHeader = 16;
  if (container.size() < kContainerHeader + 8) {
    return DataLoss("corpus: SCO1 container truncated");
  }
  const size_t at = codec == Codec::kLossless
                        ? kContainerHeader + 2 + GetLe(container, kContainerHeader, 2)
                        : kContainerHeader + 8 + GetLe(container, kContainerHeader + 2, 2) +
                              8 * static_cast<size_t>(container[kContainerHeader + 1]);
  if (at > container.size()) {
    return DataLoss("corpus: SCO1 body out of range");
  }
  return std::vector<uint8_t>(container.begin() + static_cast<ptrdiff_t>(at), container.end());
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

// `rows` filtered rows, filter ids cycling through none/sub/up/avg/paeth.
std::vector<uint8_t> FilteredRows(size_t rows, size_t stride, Rng& rng) {
  std::vector<uint8_t> out;
  for (size_t r = 0; r < rows; ++r) {
    out.push_back(static_cast<uint8_t>(r % 5));
    for (size_t i = 0; i < stride; ++i) {
      out.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
    }
  }
  return out;
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

  // Serialized frames of the same geometry, as the cache tier stores them.
  struct Sco1Kind {
    const char* name;
    Codec codec;
    int quant_bits;
  };
  for (const Sco1Kind& kind : {Sco1Kind{"lossless", Codec::kLossless, 4},
                               Sco1Kind{"quant4", Codec::kQuant8, 4},
                               Sco1Kind{"quant8", Codec::kQuant8, 8}}) {
    CompressionPolicy policy;
    policy.enabled = true;
    policy.frame_codec = kind.codec;
    policy.params.quant_bits = kind.quant_bits;
    ObjectCodec object_codec(policy);
    for (int i = 0; i < 2; ++i) {
      const std::vector<uint8_t> raw =
          SynthesizeFrame(VideoSeed(dataset.seed, i), 3 * i, dataset.height, dataset.width,
                          dataset.channels)
              .Serialize();
      SAND_ASSIGN_OR_RETURN(
          std::optional<EncodeResult> encoded,
          object_codec.Encode(StrFormat("cache/vid%03d/f%d/ncorpus", i, 3 * i), raw));
      if (!encoded.has_value() || encoded->codec != kind.codec) {
        return Internal(StrFormat("corpus: %s did not encode frame %d", kind.name, i));
      }
      SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> body, Sco1Body(encoded->bytes, kind.codec));
      out.push_back({StrFormat("sco1/%s/%d", kind.name, i), std::move(body)});
    }
  }

  for (LosslessCorpusEntry& entry : EdgeStreams()) {
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace sand
