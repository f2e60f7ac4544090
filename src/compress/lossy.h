// Transparent object compression for the cached-view tier (DESIGN.md §11).
//
// TieredCache trades cheap cycles for effective storage budget: objects are
// encoded when they leave the hot memory tier (Demote, and optionally any
// disk-tier Put) and decoded on GetShared hits. The one codec is exact: the
// filter+LZ+Huffman codec from lossless.cc, so a hit returns the bytes that
// were stored, as the view key promises on every node. (The file name
// predates that rule; perfbench/README.md cites this path.)
//
// Every encoded object is framed as
//
//   magic "SCO1" | codec u8 | flags u8 | reserved u16 | raw_size u32 |
//   raw_crc32 u32 | codec payload
//
// Codec 1 is the lossless codec. Ids 2 and 3 belonged to retired lossy
// codecs: they still parse as containers, so such an object is never
// served as raw bytes, and Decode fails them with DataLoss. raw_crc32 is
// the CRC of the decoded bytes: decode verifies it, so a corrupt or
// mis-detected object surfaces as DataLoss, never as wrong pixels. To the
// DiskStore's crash-safe publish path an encoded object is just a payload.

#ifndef SAND_COMPRESS_LOSSY_H_
#define SAND_COMPRESS_LOSSY_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/obs/metrics.h"

namespace sand {

// The TieredCache-level policy (a field of ServiceOptions). Disabled by
// default: the cache stores exactly what it is given, as before. Enabled,
// it encodes objects under "cache/" (decoded and augmented views); every
// other key (checkpoints, user objects) stays raw.
struct CompressionPolicy {
  bool enabled = false;
  // Also encode direct disk-tier Puts (not just Demote spills).
  bool compress_on_disk_put = false;
  // Objects below this size are stored raw (headers would dominate).
  size_t min_object_bytes = 1024;
};

// The codec engine a TieredCache owns when compression is enabled.
// Thread-safe: Encode/Decode run concurrently from pool workers and the
// demand path.
class ObjectCodec {
 public:
  explicit ObjectCodec(CompressionPolicy policy);

  const CompressionPolicy& policy() const { return policy_; }

  // Encodes `raw` into an SCO1 container. Returns nullopt when the object
  // should be stored raw: a key outside "cache/", an object below
  // min_object_bytes, one already encoded, or one the encoding failed to
  // shrink (counted on sand.compress.fallbacks).
  Result<std::optional<std::vector<uint8_t>>> Encode(const std::string& key,
                                                     std::span<const uint8_t> raw);

  // True when `bytes` starts with a well-formed container header.
  static bool IsEncoded(std::span<const uint8_t> bytes);

  // Decodes a framed object back to its exact raw bytes; verifies the
  // header CRC of the decoded output.
  Result<std::vector<uint8_t>> Decode(std::span<const uint8_t> bytes);

  // Cumulative raw/encoded ratio over this engine's lifetime (1.0 until the
  // first successful encode). Feeds the eviction planner's savings estimate.
  double CumulativeRatio() const;

 private:
  const CompressionPolicy policy_;

  std::atomic<uint64_t> raw_total_{0};
  std::atomic<uint64_t> encoded_total_{0};

  // Registry-backed metrics (surfaced at /.sand/metrics, tools/sand_stat).
  obs::Counter* bytes_saved_;
  obs::Counter* raw_bytes_;
  obs::Counter* encoded_bytes_;
  obs::Counter* hits_;
  obs::Counter* encode_fallbacks_;
  obs::Gauge* ratio_x1000_;
  obs::Histogram* encode_ns_;
  obs::Histogram* decode_ns_;
};

}  // namespace sand

#endif  // SAND_COMPRESS_LOSSY_H_
