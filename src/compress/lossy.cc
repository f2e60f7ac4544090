#include "src/compress/lossy.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "src/common/crc32.h"
#include "src/compress/compress_kernels.h"
#include "src/compress/lossless.h"

namespace sand {
namespace {

constexpr uint8_t kMagic[4] = {'S', 'C', 'O', '1'};
constexpr size_t kContainerHeader = 16;
constexpr uint8_t kFlagSharedBasis = 0x01;

constexpr size_t kFrameHeaderBytes = 12;  // h, w, c (u32 LE) — Frame::Serialize
constexpr size_t kBatchHeaderBytes = 20;  // n, f, h, w, c (u32 LE)

constexpr size_t kMaxBaseHints = 4096;
constexpr size_t kMaxCachedBases = 32;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void PutU8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }
void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}
void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}
void PutF32(std::vector<uint8_t>& out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(out, bits);
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
float GetF32(const uint8_t* p) {
  uint32_t bits = GetU32(p);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Bounds-checked cursor over a codec payload.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = data_[pos_++];
    return true;
  }
  bool ReadU16(uint16_t* v) {
    if (pos_ + 2 > data_.size()) return false;
    *v = GetU16(data_.data() + pos_);
    pos_ += 2;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = GetU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool ReadF32(float* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = GetF32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool ReadBytes(size_t n, std::span<const uint8_t>* out) {
    if (pos_ + n > data_.size()) return false;
    *out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }
  std::span<const uint8_t> Rest() const { return data_.subspan(pos_); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// Pixel-buffer shape sniffed from a serialized Frame or batch header. A
// wrong guess is harmless: the decoded bytes still round-trip exactly for
// lossless, and the lossy codecs only apply to keys the policy classified
// as frame data in the first place.
struct PixelShape {
  size_t prefix = 0;     // serialized header bytes copied through verbatim
  uint32_t height = 0;   // rows of one frame
  uint32_t width = 0;    // columns of one frame
  uint32_t channels = 0; // interleaved channels
  size_t pixel_bytes = 0;
};

bool SaneDim(uint32_t v, uint32_t max) { return v >= 1 && v <= max; }

std::optional<PixelShape> SniffFrame(std::span<const uint8_t> raw) {
  if (raw.size() < kFrameHeaderBytes) return std::nullopt;
  const uint32_t h = GetU32(raw.data());
  const uint32_t w = GetU32(raw.data() + 4);
  const uint32_t c = GetU32(raw.data() + 8);
  if (!SaneDim(h, 65535) || !SaneDim(w, 65535) || !SaneDim(c, 8)) return std::nullopt;
  const uint64_t body = static_cast<uint64_t>(h) * w * c;
  if (raw.size() != kFrameHeaderBytes + body) return std::nullopt;
  return PixelShape{kFrameHeaderBytes, h, w, c, static_cast<size_t>(body)};
}

std::optional<PixelShape> SniffBatch(std::span<const uint8_t> raw) {
  if (raw.size() < kBatchHeaderBytes) return std::nullopt;
  const uint32_t n = GetU32(raw.data());
  const uint32_t f = GetU32(raw.data() + 4);
  const uint32_t h = GetU32(raw.data() + 8);
  const uint32_t w = GetU32(raw.data() + 12);
  const uint32_t c = GetU32(raw.data() + 16);
  if (!SaneDim(n, 1u << 20) || !SaneDim(f, 1u << 20) || !SaneDim(h, 65535) ||
      !SaneDim(w, 65535) || !SaneDim(c, 8)) {
    return std::nullopt;
  }
  const uint64_t body = static_cast<uint64_t>(n) * f * h * w * c;
  if (raw.size() != kBatchHeaderBytes + body) return std::nullopt;
  return PixelShape{kBatchHeaderBytes, h, w, c, static_cast<size_t>(body)};
}

std::optional<PixelShape> SniffPixels(std::span<const uint8_t> raw) {
  if (auto frame = SniffFrame(raw)) return frame;
  return SniffBatch(raw);
}

// Container framing: magic | codec u8 | flags u8 | reserved u16 |
// raw_size u32 | raw_crc32 u32 | payload.
std::vector<uint8_t> StartContainer(Codec codec, uint8_t flags, uint32_t raw_size) {
  std::vector<uint8_t> out;
  out.reserve(kContainerHeader);
  for (uint8_t m : kMagic) {
    PutU8(out, m);
  }
  PutU8(out, static_cast<uint8_t>(codec));
  PutU8(out, flags);
  PutU16(out, 0);
  PutU32(out, raw_size);
  PutU32(out, 0);  // raw_crc32 patched by SealContainer
  return out;
}

// `decoded_crc` is the CRC of the bytes Decode will reproduce — the raw
// input for lossless, the deterministic reconstruction for lossy codecs.
void SealContainer(std::vector<uint8_t>& out, uint32_t decoded_crc) {
  out[12] = static_cast<uint8_t>(decoded_crc);
  out[13] = static_cast<uint8_t>(decoded_crc >> 8);
  out[14] = static_cast<uint8_t>(decoded_crc >> 16);
  out[15] = static_cast<uint8_t>(decoded_crc >> 24);
}

struct ContainerHeader {
  Codec codec = Codec::kNone;
  uint8_t flags = 0;
  uint32_t raw_size = 0;
  uint32_t raw_crc = 0;
};

std::optional<ContainerHeader> ParseContainer(std::span<const uint8_t> bytes) {
  if (bytes.size() < kContainerHeader) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) return std::nullopt;
  const uint8_t codec = bytes[4];
  if (codec < 1 || codec > 3) return std::nullopt;
  ContainerHeader hdr;
  hdr.codec = static_cast<Codec>(codec);
  hdr.flags = bytes[5];
  hdr.raw_size = GetU32(bytes.data() + 8);
  hdr.raw_crc = GetU32(bytes.data() + 12);
  return hdr;
}

// Symmetric int8 quantization of a float vector: scale = max|x| / 127.
// Codes are stored biased by 128 so the payload stays plain uint8.
float QuantizeF32Vector(std::span<const float> in, std::vector<uint8_t>& out) {
  float max_abs = 0.0f;
  for (float v : in) {
    max_abs = std::max(max_abs, std::fabs(v));
  }
  const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  const float inv = 1.0f / scale;
  for (float v : in) {
    float q = v * inv;
    q = q < -127.0f ? -127.0f : (q > 127.0f ? 127.0f : q);
    const int code = static_cast<int>(q < 0.0f ? q - 0.5f : q + 0.5f);
    out.push_back(static_cast<uint8_t>(code + 128));
  }
  return scale;
}

void DequantizeF32Vector(std::span<const uint8_t> codes, float scale, std::span<float> out) {
  for (size_t i = 0; i < codes.size(); ++i) {
    out[i] = static_cast<float>(static_cast<int>(codes[i]) - 128) * scale;
  }
}

}  // namespace

const char* CodecName(Codec codec) {
  switch (codec) {
    case Codec::kNone:
      return "none";
    case Codec::kLossless:
      return "lossless";
    case Codec::kQuant8:
      return "quant8";
    case Codec::kSvd:
      return "svd";
  }
  return "unknown";
}

std::optional<Codec> CodecFromName(std::string_view name) {
  if (name == "none") return Codec::kNone;
  if (name == "lossless") return Codec::kLossless;
  if (name == "quant8") return Codec::kQuant8;
  if (name == "svd") return Codec::kSvd;
  return std::nullopt;
}

ObjectClass ClassifyCacheKey(std::string_view key) {
  if (key.size() >= 5 && key.substr(key.size() - 5) == "/view") {
    return ObjectClass::kBatch;
  }
  constexpr std::string_view kCachePrefix = "cache/";
  if (key.substr(0, kCachePrefix.size()) == kCachePrefix) {
    // "cache/<video>/f<idx>/n<hash>" vs "cache/<video>/a<idx>/n<hash>".
    const size_t slash = key.find('/', kCachePrefix.size());
    if (slash != std::string_view::npos && slash + 1 < key.size() && key[slash + 1] == 'a') {
      return ObjectClass::kAugFrame;
    }
    return ObjectClass::kFrame;
  }
  return ObjectClass::kOpaque;
}

Codec CompressionPolicy::CodecFor(ObjectClass cls) const {
  switch (cls) {
    case ObjectClass::kFrame:
      return frame_codec;
    case ObjectClass::kAugFrame:
      return aug_codec;
    case ObjectClass::kBatch:
      return batch_codec;
    case ObjectClass::kOpaque:
      return opaque_codec;
  }
  return Codec::kNone;
}

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

void ObjectCodec::set_base_fetcher(BaseObjectFetcher fetcher) {
  std::lock_guard<std::mutex> lock(fetcher_mutex_);
  base_fetcher_ = std::move(fetcher);
}

void ObjectCodec::NoteBaseObject(const std::string& key, const std::string& base_key) {
  if (key == base_key || key.empty() || base_key.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(hints_mutex_);
  auto [it, inserted] = base_hints_.emplace(key, base_key);
  if (!inserted) {
    it->second = base_key;
    return;
  }
  hint_order_.push_back(key);
  if (hint_order_.size() > kMaxBaseHints) {
    base_hints_.erase(hint_order_.front());
    hint_order_.pop_front();
  }
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

Result<std::optional<EncodeResult>> ObjectCodec::Encode(const std::string& key,
                                                        std::span<const uint8_t> raw) {
  const Codec codec = policy_.CodecFor(ClassifyCacheKey(key));
  if (codec == Codec::kNone || raw.size() < policy_.min_object_bytes ||
      raw.size() > UINT32_MAX || IsEncoded(raw)) {
    return std::optional<EncodeResult>(std::nullopt);
  }

  const uint64_t start = NowNs();
  Result<std::optional<EncodeResult>> result = std::optional<EncodeResult>(std::nullopt);
  switch (codec) {
    case Codec::kLossless:
      result = EncodeLossless(raw);
      break;
    case Codec::kQuant8:
      result = EncodeQuant(raw);
      break;
    case Codec::kSvd:
      result = EncodeSvd(key, raw);
      break;
    case Codec::kNone:
      return std::optional<EncodeResult>(std::nullopt);
  }
  if (!result.ok()) {
    return result.status();
  }
  encode_ns_->Record(NowNs() - start);

  if (result->has_value() && (*result)->bytes.size() >= raw.size()) {
    // Encoding did not shrink the object; store raw.
    result = std::optional<EncodeResult>(std::nullopt);
  }
  if (result->has_value()) {
    const uint64_t encoded_size = (*result)->bytes.size();
    raw_total_.fetch_add(raw.size(), std::memory_order_relaxed);
    encoded_total_.fetch_add(encoded_size, std::memory_order_relaxed);
    raw_bytes_->Add(raw.size());
    encoded_bytes_->Add(encoded_size);
    bytes_saved_->Add(raw.size() - encoded_size);
    ratio_x1000_->Set(static_cast<int64_t>(CumulativeRatio() * 1000.0));
  }
  return result;
}

Result<std::vector<uint8_t>> ObjectCodec::Decode(std::span<const uint8_t> bytes) {
  const auto hdr = ParseContainer(bytes);
  if (!hdr) {
    return InvalidArgument("Decode: not an SCO1 container");
  }
  const uint64_t start = NowNs();
  const std::span<const uint8_t> payload = bytes.subspan(kContainerHeader);

  Result<std::vector<uint8_t>> decoded;  // every codec case below assigns it
  switch (hdr->codec) {
    case Codec::kLossless:
      decoded = DecodeLossless(payload, hdr->raw_size);
      break;
    case Codec::kQuant8:
      decoded = DecodeQuant(payload, hdr->raw_size);
      break;
    case Codec::kSvd:
      decoded = DecodeSvd(payload, hdr->raw_size, (hdr->flags & kFlagSharedBasis) != 0);
      break;
    case Codec::kNone:
      return InvalidArgument("Decode: codec none is never framed");
  }
  if (!decoded.ok()) {
    return decoded.status();
  }
  if (decoded->size() != hdr->raw_size) {
    return DataLoss("Decode: size mismatch against container header");
  }
  if (Crc32(std::span<const uint8_t>(*decoded)) != hdr->raw_crc) {
    return DataLoss("Decode: CRC mismatch on decoded bytes");
  }
  decode_ns_->Record(NowNs() - start);
  hits_->Add();
  return decoded;
}

// --- lossless ----------------------------------------------------------------
//
// Payload: u16 prefix_len | prefix bytes | LosslessCompress(body, stride).
// The prefix (a Frame/batch header, when present) is copied verbatim so the
// row stride lines up with pixel rows.

Result<std::optional<EncodeResult>> ObjectCodec::EncodeLossless(std::span<const uint8_t> raw) {
  size_t prefix = 0;
  size_t stride = raw.size();
  if (auto shape = SniffPixels(raw)) {
    prefix = shape->prefix;
    stride = static_cast<size_t>(shape->width) * shape->channels;
  }
  const std::span<const uint8_t> body = raw.subspan(prefix);
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> compressed, LosslessCompress(body, stride));

  std::vector<uint8_t> out =
      StartContainer(Codec::kLossless, 0, static_cast<uint32_t>(raw.size()));
  PutU16(out, static_cast<uint16_t>(prefix));
  out.insert(out.end(), raw.begin(), raw.begin() + prefix);
  out.insert(out.end(), compressed.begin(), compressed.end());
  SealContainer(out, Crc32(raw));
  EncodeResult result;
  result.bytes = std::move(out);
  result.codec = Codec::kLossless;
  return std::optional<EncodeResult>(std::move(result));
}

Result<std::vector<uint8_t>> ObjectCodec::DecodeLossless(std::span<const uint8_t> payload,
                                                         size_t raw_size) {
  Reader r(payload);
  uint16_t prefix_len = 0;
  std::span<const uint8_t> prefix;
  if (!r.ReadU16(&prefix_len) || !r.ReadBytes(prefix_len, &prefix)) {
    return DataLoss("lossless payload truncated");
  }
  if (prefix_len > raw_size) {
    return DataLoss("lossless prefix longer than raw object");
  }
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> body, LosslessDecompress(r.Rest()));
  std::vector<uint8_t> out;
  out.reserve(raw_size);
  out.insert(out.end(), prefix.begin(), prefix.end());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// --- quant8 ------------------------------------------------------------------
//
// Payload: u8 bits | u8 channels | u16 prefix_len | u32 pixels_per_plane |
// prefix bytes | channels x (f32 scale, f32 zero) |
// LosslessCompress(packed codes).
//
// Planes are the deinterleaved channels of the whole pixel body (one frame
// or a full batch — the layout repeats identically), quantized to
// 2^bits levels against a per-plane affine (scale, zero-point) map.

Result<std::optional<EncodeResult>> ObjectCodec::EncodeQuant(std::span<const uint8_t> raw) {
  const auto shape = SniffPixels(raw);
  if (!shape) {
    // Not pixel data; exact fallback keeps the object safe to serve.
    encode_fallbacks_->Add();
    return EncodeLossless(raw);
  }
  const int bits = policy_.params.quant_bits <= 4 ? 4 : 8;
  const int levels = 1 << bits;
  const uint32_t channels = shape->channels;
  const size_t pixels = shape->pixel_bytes / channels;
  const std::span<const uint8_t> body = raw.subspan(shape->prefix);

  std::vector<uint8_t> out =
      StartContainer(Codec::kQuant8, 0, static_cast<uint32_t>(raw.size()));
  PutU8(out, static_cast<uint8_t>(bits));
  PutU8(out, static_cast<uint8_t>(channels));
  PutU16(out, static_cast<uint16_t>(shape->prefix));
  PutU32(out, static_cast<uint32_t>(pixels));
  out.insert(out.end(), raw.begin(), raw.begin() + shape->prefix);

  std::vector<uint8_t> plane(pixels);
  std::vector<uint8_t> codes(shape->pixel_bytes);
  // The reconstruction mirrors what Decode computes so the container CRC is
  // of the bytes a hit will actually observe.
  std::vector<uint8_t> recon(raw.size());
  std::copy(raw.begin(), raw.begin() + shape->prefix, recon.begin());
  const std::span<uint8_t> recon_body(recon.data() + shape->prefix, shape->pixel_bytes);

  for (uint32_t c = 0; c < channels; ++c) {
    DeinterleavePlane(body, static_cast<int>(channels), static_cast<int>(c),
                      std::span<uint8_t>(plane));
    uint8_t lo = 0;
    uint8_t hi = 0;
    PlaneMinMax(plane, &lo, &hi);
    const float zero = static_cast<float>(lo);
    const float scale =
        hi > lo ? static_cast<float>(hi - lo) / static_cast<float>(levels - 1) : 1.0f;
    PutF32(out, scale);
    PutF32(out, zero);
    const std::span<uint8_t> code_slice(codes.data() + static_cast<size_t>(c) * pixels,
                                        pixels);
    QuantizePlane(plane, scale, zero, levels, code_slice);
    DequantizePlane(code_slice, scale, zero, std::span<uint8_t>(plane));
    InterleavePlane(plane, static_cast<int>(channels), static_cast<int>(c), recon_body);
  }

  std::vector<uint8_t> packed;
  if (bits == 4) {
    packed.resize((codes.size() + 1) / 2);
    PackNibbles(codes, packed);
  } else {
    packed = std::move(codes);
  }
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> compressed,
                        LosslessCompress(packed, packed.size()));
  out.insert(out.end(), compressed.begin(), compressed.end());
  SealContainer(out, Crc32(recon));
  EncodeResult result;
  result.bytes = std::move(out);
  result.codec = Codec::kQuant8;
  return std::optional<EncodeResult>(std::move(result));
}

Result<std::vector<uint8_t>> ObjectCodec::DecodeQuant(std::span<const uint8_t> payload,
                                                      size_t raw_size) {
  Reader r(payload);
  uint8_t bits = 0;
  uint8_t channels = 0;
  uint16_t prefix_len = 0;
  uint32_t pixels = 0;
  std::span<const uint8_t> prefix;
  if (!r.ReadU8(&bits) || !r.ReadU8(&channels) || !r.ReadU16(&prefix_len) ||
      !r.ReadU32(&pixels) || !r.ReadBytes(prefix_len, &prefix)) {
    return DataLoss("quant payload truncated");
  }
  if ((bits != 4 && bits != 8) || channels == 0 ||
      prefix_len + static_cast<uint64_t>(pixels) * channels != raw_size) {
    return DataLoss("quant payload geometry inconsistent");
  }
  std::vector<float> scales(channels);
  std::vector<float> zeros(channels);
  for (uint8_t c = 0; c < channels; ++c) {
    if (!r.ReadF32(&scales[c]) || !r.ReadF32(&zeros[c])) {
      return DataLoss("quant payload truncated in plane params");
    }
  }
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> packed, LosslessDecompress(r.Rest()));
  const size_t total = static_cast<size_t>(pixels) * channels;
  std::vector<uint8_t> codes;
  if (bits == 4) {
    if (packed.size() != (total + 1) / 2) {
      return DataLoss("quant packed size mismatch");
    }
    codes.resize(total);
    UnpackNibbles(packed, codes);
  } else {
    if (packed.size() != total) {
      return DataLoss("quant code size mismatch");
    }
    codes = std::move(packed);
  }

  std::vector<uint8_t> out(raw_size);
  std::copy(prefix.begin(), prefix.end(), out.begin());
  const std::span<uint8_t> body(out.data() + prefix_len, total);
  std::vector<uint8_t> plane(pixels);
  for (uint8_t c = 0; c < channels; ++c) {
    const std::span<const uint8_t> code_slice(codes.data() + static_cast<size_t>(c) * pixels,
                                              pixels);
    DequantizePlane(code_slice, scales[c], zeros[c], std::span<uint8_t>(plane));
    InterleavePlane(plane, channels, c, body);
  }
  return out;
}

// --- svd ---------------------------------------------------------------------
//
// Payload: u8 rank | u8 channels | u16 h | u16 w | u16 reserved |
// channels x f32 mean |
//   shared: u16 base_key_len | base_key
//   self:   rank x (f32 v_scale, w x int8 v-codes)
// channels x rank x (f32 u_scale, h x int8 u-codes)
//
// The basis V (rank orthonormal w-vectors) comes from deterministic power
// iteration over the channel-averaged, mean-centered plane. Shared-basis
// objects omit V: decode refetches the base object and recomputes the
// identical basis (the iteration is single-threaded with left-to-right
// reductions, so identical bytes give identical floats).

namespace {

// Power-iteration basis of the channel-averaged float matrix. Deterministic
// by construction; rows are prefix-stable in rank (row r never depends on
// rows > r), so a higher-rank basis serves lower-rank requests.
void PowerIterationBasis(std::vector<float> a, size_t rows, size_t cols, int rank, int iters,
                        std::vector<float>& v_out) {
  v_out.assign(static_cast<size_t>(rank) * cols, 0.0f);
  std::vector<float> v(cols);
  std::vector<float> u(rows);
  for (int r = 0; r < rank; ++r) {
    const std::span<float> v_row(v_out.data() + static_cast<size_t>(r) * cols, cols);
    // Deterministic start: the normalized ones vector.
    const float init = 1.0f / std::sqrt(static_cast<float>(cols));
    std::fill(v.begin(), v.end(), init);
    bool degenerate = false;
    for (int it = 0; it < iters; ++it) {
      MatVec(a, rows, cols, v, u);
      MatTVec(a, rows, cols, u, v);
      // Orthogonalize against the accepted rows, then normalize.
      for (int j = 0; j < r; ++j) {
        const std::span<const float> prev(v_out.data() + static_cast<size_t>(j) * cols, cols);
        const float d = DotF32(v, prev);
        for (size_t k = 0; k < cols; ++k) {
          v[k] -= d * prev[k];
        }
      }
      const float norm = std::sqrt(DotF32(v, v));
      if (norm < 1e-6f) {
        degenerate = true;
        break;
      }
      const float inv = 1.0f / norm;
      for (float& x : v) {
        x *= inv;
      }
    }
    if (degenerate) {
      // Residual is (numerically) zero in every remaining direction; fall
      // back to a unit vector so the basis stays orthonormal.
      std::fill(v.begin(), v.end(), 0.0f);
      v[static_cast<size_t>(r) % cols] = 1.0f;
      for (int j = 0; j < r; ++j) {
        const std::span<const float> prev(v_out.data() + static_cast<size_t>(j) * cols, cols);
        const float d = DotF32(v, prev);
        for (size_t k = 0; k < cols; ++k) {
          v[k] -= d * prev[k];
        }
      }
      const float norm = std::sqrt(DotF32(v, v));
      if (norm > 1e-6f) {
        const float inv = 1.0f / norm;
        for (float& x : v) {
          x *= inv;
        }
      } else {
        std::fill(v.begin(), v.end(), 0.0f);
      }
    }
    std::copy(v.begin(), v.end(), v_row.begin());
    MatVec(a, rows, cols, v, u);
    SubtractOuter(a, rows, cols, u, v);  // deflate
  }
}

// Channel-averaged, mean-centered float plane of a serialized frame.
void CenteredAveragePlane(std::span<const uint8_t> body, uint32_t h, uint32_t w, uint32_t c,
                          std::vector<float>& out) {
  const size_t pixels = static_cast<size_t>(h) * w;
  out.assign(pixels, 0.0f);
  const float inv_c = 1.0f / static_cast<float>(c);
  for (size_t i = 0; i < pixels; ++i) {
    float acc = 0.0f;
    for (uint32_t ch = 0; ch < c; ++ch) {
      acc += static_cast<float>(body[i * c + ch]);
    }
    out[i] = acc * inv_c;
  }
  float mean = 0.0f;
  for (float v : out) {
    mean += v;
  }
  mean /= static_cast<float>(pixels);
  for (float& v : out) {
    v -= mean;
  }
}

}  // namespace

Result<std::shared_ptr<const ObjectCodec::Basis>> ObjectCodec::BasisFor(
    const std::string& base_key, int rank) {
  {
    std::lock_guard<std::mutex> lock(basis_mutex_);
    auto it = basis_cache_.find(base_key);
    if (it != basis_cache_.end() && it->second->rank >= rank) {
      basis_order_.remove(base_key);
      basis_order_.push_back(base_key);
      return it->second;
    }
  }
  BaseObjectFetcher fetcher;
  {
    std::lock_guard<std::mutex> lock(fetcher_mutex_);
    fetcher = base_fetcher_;
  }
  if (!fetcher) {
    return NotFound("shared-basis decode: no base fetcher attached");
  }
  SAND_ASSIGN_OR_RETURN(SharedBytes base, fetcher(base_key));
  const auto shape = SniffFrame(std::span<const uint8_t>(*base));
  if (!shape) {
    return FailedPrecondition("shared-basis base object is not a serialized frame");
  }
  auto basis = std::make_shared<Basis>();
  basis->rank = std::min<int>(rank, std::min(shape->height, shape->width));
  basis->width = static_cast<int>(shape->width);
  std::vector<float> a;
  CenteredAveragePlane(std::span<const uint8_t>(*base).subspan(shape->prefix), shape->height,
                       shape->width, shape->channels, a);
  PowerIterationBasis(std::move(a), shape->height, shape->width, basis->rank,
                      policy_.params.svd_power_iters, basis->v);
  if (basis->rank < rank) {
    return FailedPrecondition("base frame too small for requested rank");
  }
  std::shared_ptr<const Basis> shared = std::move(basis);
  {
    std::lock_guard<std::mutex> lock(basis_mutex_);
    basis_order_.remove(base_key);
    basis_cache_[base_key] = shared;
    basis_order_.push_back(base_key);
    while (basis_order_.size() > kMaxCachedBases) {
      basis_cache_.erase(basis_order_.front());
      basis_order_.pop_front();
    }
  }
  return shared;
}

Result<std::optional<EncodeResult>> ObjectCodec::EncodeSvd(const std::string& key,
                                                           std::span<const uint8_t> raw) {
  const auto shape = SniffFrame(raw);
  if (!shape) {
    encode_fallbacks_->Add();
    return EncodeLossless(raw);
  }
  const uint32_t h = shape->height;
  const uint32_t w = shape->width;
  const uint32_t c = shape->channels;
  const int rank =
      std::max(1, std::min<int>(policy_.params.svd_rank, std::min(h, w)));

  std::string base_key;
  {
    std::lock_guard<std::mutex> lock(hints_mutex_);
    auto it = base_hints_.find(key);
    if (it != base_hints_.end()) {
      base_key = it->second;
    }
  }
  std::shared_ptr<const Basis> shared_basis;
  if (!base_key.empty()) {
    auto basis = BasisFor(base_key, rank);
    if (basis.ok() && (*basis)->width == static_cast<int>(w)) {
      shared_basis = *basis;
    }
  }

  // Basis rows used for projection AND reconstruction. Shared: exact floats
  // (decode recomputes them). Self-contained: the dequantized stored rows,
  // so encode-side reconstruction matches what decode will compute.
  std::vector<float> v_rows(static_cast<size_t>(rank) * w);
  std::vector<uint8_t> v_payload;  // rank x (f32 scale + w codes), self only
  if (shared_basis) {
    std::copy(shared_basis->v.begin(),
              shared_basis->v.begin() + static_cast<size_t>(rank) * w, v_rows.begin());
  } else {
    std::vector<float> a;
    CenteredAveragePlane(raw.subspan(shape->prefix), h, w, c, a);
    std::vector<float> exact;
    PowerIterationBasis(std::move(a), h, w, rank, policy_.params.svd_power_iters, exact);
    std::vector<uint8_t> codes;
    for (int r = 0; r < rank; ++r) {
      const std::span<const float> row(exact.data() + static_cast<size_t>(r) * w, w);
      codes.clear();
      const float scale = QuantizeF32Vector(row, codes);
      PutF32(v_payload, scale);
      v_payload.insert(v_payload.end(), codes.begin(), codes.end());
      DequantizeF32Vector(codes, scale,
                          std::span<float>(v_rows.data() + static_cast<size_t>(r) * w, w));
    }
  }

  std::vector<uint8_t> out = StartContainer(
      Codec::kSvd, shared_basis ? kFlagSharedBasis : 0, static_cast<uint32_t>(raw.size()));
  PutU8(out, static_cast<uint8_t>(rank));
  PutU8(out, static_cast<uint8_t>(c));
  PutU16(out, static_cast<uint16_t>(h));
  PutU16(out, static_cast<uint16_t>(w));
  PutU16(out, 0);

  const size_t pixels = static_cast<size_t>(h) * w;
  const std::span<const uint8_t> body = raw.subspan(shape->prefix);
  std::vector<uint8_t> plane(pixels);
  std::vector<float> p(pixels);
  std::vector<float> means(c);
  for (uint32_t ch = 0; ch < c; ++ch) {
    DeinterleavePlane(body, static_cast<int>(c), static_cast<int>(ch),
                      std::span<uint8_t>(plane));
    float mean = 0.0f;
    for (uint8_t v : plane) {
      mean += static_cast<float>(v);
    }
    means[ch] = mean / static_cast<float>(pixels);
    PutF32(out, means[ch]);
  }

  if (shared_basis) {
    PutU16(out, static_cast<uint16_t>(base_key.size()));
    out.insert(out.end(), base_key.begin(), base_key.end());
  } else {
    out.insert(out.end(), v_payload.begin(), v_payload.end());
  }

  // Per-plane coefficients, plus the decode-identical reconstruction for the
  // container CRC.
  std::vector<uint8_t> recon(raw.size());
  std::copy(raw.begin(), raw.begin() + shape->prefix, recon.begin());
  const std::span<uint8_t> recon_body(recon.data() + shape->prefix, body.size());
  std::vector<float> u(h);
  std::vector<float> u_deq(h);
  std::vector<float> recon_plane(pixels);
  std::vector<uint8_t> u_codes;
  for (uint32_t ch = 0; ch < c; ++ch) {
    DeinterleavePlane(body, static_cast<int>(c), static_cast<int>(ch),
                      std::span<uint8_t>(plane));
    PlaneToFloat(plane, p);
    for (float& v : p) {
      v -= means[ch];
    }
    std::fill(recon_plane.begin(), recon_plane.end(), means[ch]);
    for (int r = 0; r < rank; ++r) {
      const std::span<const float> v_row(v_rows.data() + static_cast<size_t>(r) * w, w);
      MatVec(p, h, w, v_row, u);
      u_codes.clear();
      const float scale = QuantizeF32Vector(u, u_codes);
      PutF32(out, scale);
      out.insert(out.end(), u_codes.begin(), u_codes.end());
      DequantizeF32Vector(u_codes, scale, u_deq);
      AddOuter(recon_plane, h, w, u_deq, v_row);
    }
    FloatToPlane(recon_plane, plane);
    InterleavePlane(plane, static_cast<int>(c), static_cast<int>(ch), recon_body);
  }
  SealContainer(out, Crc32(recon));
  EncodeResult result;
  result.bytes = std::move(out);
  result.codec = Codec::kSvd;
  result.shared_basis = shared_basis != nullptr;
  return std::optional<EncodeResult>(std::move(result));
}

Result<std::vector<uint8_t>> ObjectCodec::DecodeSvd(std::span<const uint8_t> payload,
                                                    size_t raw_size, bool shared) {
  Reader r(payload);
  uint8_t rank = 0;
  uint8_t channels = 0;
  uint16_t h = 0;
  uint16_t w = 0;
  uint16_t reserved = 0;
  if (!r.ReadU8(&rank) || !r.ReadU8(&channels) || !r.ReadU16(&h) || !r.ReadU16(&w) ||
      !r.ReadU16(&reserved)) {
    return DataLoss("svd payload truncated");
  }
  if (rank == 0 || channels == 0 || h == 0 || w == 0 ||
      raw_size != kFrameHeaderBytes + static_cast<uint64_t>(h) * w * channels) {
    return DataLoss("svd payload geometry inconsistent");
  }
  std::vector<float> means(channels);
  for (uint8_t ch = 0; ch < channels; ++ch) {
    if (!r.ReadF32(&means[ch])) {
      return DataLoss("svd payload truncated in means");
    }
  }

  std::vector<float> v_rows(static_cast<size_t>(rank) * w);
  if (shared) {
    uint16_t key_len = 0;
    std::span<const uint8_t> key_bytes;
    if (!r.ReadU16(&key_len) || !r.ReadBytes(key_len, &key_bytes)) {
      return DataLoss("svd payload truncated in base key");
    }
    const std::string base_key(reinterpret_cast<const char*>(key_bytes.data()),
                               key_bytes.size());
    auto basis = BasisFor(base_key, rank);
    if (!basis.ok()) {
      // The base object is gone or unreadable; surface as a miss upstream.
      return NotFound("shared-basis base object unavailable: " +
                      basis.status().message());
    }
    if ((*basis)->width != static_cast<int>(w) || (*basis)->rank < rank) {
      return DataLoss("shared-basis shape mismatch");
    }
    std::copy((*basis)->v.begin(), (*basis)->v.begin() + static_cast<size_t>(rank) * w,
              v_rows.begin());
  } else {
    std::vector<uint8_t> codes(w);
    for (uint8_t rr = 0; rr < rank; ++rr) {
      float scale = 0.0f;
      std::span<const uint8_t> code_bytes;
      if (!r.ReadF32(&scale) || !r.ReadBytes(w, &code_bytes)) {
        return DataLoss("svd payload truncated in basis rows");
      }
      DequantizeF32Vector(code_bytes, scale,
                          std::span<float>(v_rows.data() + static_cast<size_t>(rr) * w, w));
    }
  }

  std::vector<uint8_t> out(raw_size);
  // Rebuild the 12-byte frame header from the stored geometry.
  out[0] = static_cast<uint8_t>(h);
  out[1] = static_cast<uint8_t>(h >> 8);
  out[2] = 0;
  out[3] = 0;
  out[4] = static_cast<uint8_t>(w);
  out[5] = static_cast<uint8_t>(w >> 8);
  out[6] = 0;
  out[7] = 0;
  out[8] = channels;
  out[9] = 0;
  out[10] = 0;
  out[11] = 0;

  const size_t pixels = static_cast<size_t>(h) * w;
  const std::span<uint8_t> body(out.data() + kFrameHeaderBytes,
                                pixels * static_cast<size_t>(channels));
  std::vector<float> recon_plane(pixels);
  std::vector<float> u_deq(h);
  std::vector<uint8_t> plane(pixels);
  for (uint8_t ch = 0; ch < channels; ++ch) {
    std::fill(recon_plane.begin(), recon_plane.end(), means[ch]);
    for (uint8_t rr = 0; rr < rank; ++rr) {
      float scale = 0.0f;
      std::span<const uint8_t> code_bytes;
      if (!r.ReadF32(&scale) || !r.ReadBytes(h, &code_bytes)) {
        return DataLoss("svd payload truncated in coefficients");
      }
      DequantizeF32Vector(code_bytes, scale, u_deq);
      const std::span<const float> v_row(v_rows.data() + static_cast<size_t>(rr) * w, w);
      AddOuter(recon_plane, h, w, u_deq, v_row);
    }
    FloatToPlane(recon_plane, plane);
    InterleavePlane(plane, channels, ch, body);
  }
  return out;
}

}  // namespace sand
