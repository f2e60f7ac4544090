#include "src/compress/lossy.h"

#include <chrono>
#include <cstring>
#include <string_view>

#include "src/common/crc32.h"
#include "src/common/strings.h"
#include "src/compress/lossless.h"

namespace sand {
namespace {

constexpr uint8_t kMagic[4] = {'S', 'C', 'O', '1'};
constexpr size_t kContainerHeader = 16;
constexpr uint8_t kCodecLossless = 1;
// Ids up to this one parse as containers (see lossy.h): 2 and 3 are the
// retired lossy codecs.
constexpr uint8_t kLastCodecId = 3;

constexpr size_t kFrameHeaderBytes = 12;  // h, w, c (u32 LE) — Frame::Serialize

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}
void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

bool SaneDim(uint32_t v, uint32_t max) { return v >= 1 && v <= max; }

// The pixel row stride (width x channels) when `raw` is a serialized Frame,
// whose 12-byte header is then copied through verbatim so the filters see
// pixel rows; 0 otherwise. A wrong guess is harmless: the bytes still
// round-trip exactly.
size_t FrameRowStride(std::span<const uint8_t> raw) {
  if (raw.size() < kFrameHeaderBytes) return 0;
  const uint32_t h = GetU32(raw.data());
  const uint32_t w = GetU32(raw.data() + 4);
  const uint32_t c = GetU32(raw.data() + 8);
  if (!SaneDim(h, 65535) || !SaneDim(w, 65535) || !SaneDim(c, 8)) return 0;
  const uint64_t body = static_cast<uint64_t>(h) * w * c;
  if (raw.size() != kFrameHeaderBytes + body) return 0;
  return static_cast<size_t>(w) * c;
}

struct ContainerHeader {
  uint8_t codec = 0;
  uint32_t raw_size = 0;
  uint32_t raw_crc = 0;
};

std::optional<ContainerHeader> ParseContainer(std::span<const uint8_t> bytes) {
  if (bytes.size() < kContainerHeader) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) return std::nullopt;
  const uint8_t codec = bytes[4];
  if (codec < kCodecLossless || codec > kLastCodecId) return std::nullopt;
  ContainerHeader hdr;
  hdr.codec = codec;
  hdr.raw_size = GetU32(bytes.data() + 8);
  hdr.raw_crc = GetU32(bytes.data() + 12);
  return hdr;
}

// Lossless payload: u16 prefix_len | prefix bytes | LosslessCompress(body).
Result<std::vector<uint8_t>> DecodeLossless(std::span<const uint8_t> payload,
                                            size_t raw_size) {
  if (payload.size() < 2) {
    return DataLoss("lossless payload truncated");
  }
  const uint16_t prefix_len = GetU16(payload.data());
  if (payload.size() - 2 < prefix_len) {
    return DataLoss("lossless payload truncated");
  }
  if (prefix_len > raw_size) {
    return DataLoss("lossless prefix longer than raw object");
  }
  const std::span<const uint8_t> prefix = payload.subspan(2, prefix_len);
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        LosslessDecompress(payload.subspan(2 + prefix_len)));
  std::vector<uint8_t> out;
  out.reserve(raw_size);
  out.insert(out.end(), prefix.begin(), prefix.end());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

ObjectCodec::ObjectCodec(CompressionPolicy policy) : policy_(policy) {
  auto& reg = obs::Registry::Get();
  bytes_saved_ = reg.GetCounter("sand.compress.bytes_saved");
  raw_bytes_ = reg.GetCounter("sand.compress.encoded_raw_bytes");
  encoded_bytes_ = reg.GetCounter("sand.compress.encoded_bytes");
  hits_ = reg.GetCounter("sand.compress.hits");
  encode_fallbacks_ = reg.GetCounter("sand.compress.fallbacks");
  ratio_x1000_ = reg.GetGauge("sand.compress.ratio_x1000");
  encode_ns_ = reg.GetHistogram("sand.compress.encode_ns");
  decode_ns_ = reg.GetHistogram("sand.compress.decode_ns");
}

bool ObjectCodec::IsEncoded(std::span<const uint8_t> bytes) {
  return ParseContainer(bytes).has_value();
}

double ObjectCodec::CumulativeRatio() const {
  const uint64_t encoded = encoded_total_.load(std::memory_order_relaxed);
  if (encoded == 0) {
    return 1.0;
  }
  return static_cast<double>(raw_total_.load(std::memory_order_relaxed)) /
         static_cast<double>(encoded);
}

Result<std::optional<std::vector<uint8_t>>> ObjectCodec::Encode(const std::string& key,
                                                                std::span<const uint8_t> raw) {
  if (!std::string_view(key).starts_with("cache/") || raw.size() < policy_.min_object_bytes ||
      raw.size() > UINT32_MAX || IsEncoded(raw)) {
    return std::optional<std::vector<uint8_t>>(std::nullopt);
  }

  const uint64_t start = NowNs();
  const size_t frame_stride = FrameRowStride(raw);
  const size_t prefix = frame_stride != 0 ? kFrameHeaderBytes : 0;
  SAND_ASSIGN_OR_RETURN(
      std::vector<uint8_t> compressed,
      LosslessCompress(raw.subspan(prefix), frame_stride != 0 ? frame_stride : raw.size()));
  std::vector<uint8_t> out;
  out.reserve(kContainerHeader + 2 + prefix + compressed.size());
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kCodecLossless);
  out.push_back(0);  // flags
  PutU16(out, 0);    // reserved
  PutU32(out, static_cast<uint32_t>(raw.size()));
  PutU32(out, Crc32(raw));
  PutU16(out, static_cast<uint16_t>(prefix));
  out.insert(out.end(), raw.begin(), raw.begin() + static_cast<ptrdiff_t>(prefix));
  out.insert(out.end(), compressed.begin(), compressed.end());
  encode_ns_->Record(NowNs() - start);

  if (out.size() >= raw.size()) {
    // Encoding did not shrink the object; store raw.
    encode_fallbacks_->Add();
    return std::optional<std::vector<uint8_t>>(std::nullopt);
  }
  raw_total_.fetch_add(raw.size(), std::memory_order_relaxed);
  encoded_total_.fetch_add(out.size(), std::memory_order_relaxed);
  raw_bytes_->Add(raw.size());
  encoded_bytes_->Add(out.size());
  bytes_saved_->Add(raw.size() - out.size());
  ratio_x1000_->Set(static_cast<int64_t>(CumulativeRatio() * 1000.0));
  return std::optional<std::vector<uint8_t>>(std::move(out));
}

Result<std::vector<uint8_t>> ObjectCodec::Decode(std::span<const uint8_t> bytes) {
  const auto hdr = ParseContainer(bytes);
  if (!hdr) {
    return InvalidArgument("Decode: not an SCO1 container");
  }
  if (hdr->codec != kCodecLossless) {
    return DataLoss(StrFormat("Decode: retired SCO1 codec id %u",
                              static_cast<unsigned>(hdr->codec)));
  }
  const uint64_t start = NowNs();
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> decoded,
                        DecodeLossless(bytes.subspan(kContainerHeader), hdr->raw_size));
  if (decoded.size() != hdr->raw_size) {
    return DataLoss("Decode: size mismatch against container header");
  }
  if (Crc32(std::span<const uint8_t>(decoded)) != hdr->raw_crc) {
    return DataLoss("Decode: CRC mismatch on decoded bytes");
  }
  decode_ns_->Record(NowNs() - start);
  hits_->Add();
  return decoded;
}

}  // namespace sand
