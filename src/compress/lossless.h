// Lossless byte compression for cached frames.
//
// The paper caches decoded/augmented frames with libpng. This module plays
// the same role with a from-scratch two-stage codec:
//
//   1. Predictive row filters (PNG-style: none / sub / up / average / paeth),
//      chosen per row by minimum absolute residual sum.
//   2. An LZ+RLE stage over the filtered residuals, then an order-0
//      canonical Huffman pass over the LZ tokens.
//
// Round-trip fidelity is exact; compression ratio on smooth synthetic video
// frames is typically 2-6x, giving the cache-size/recompute trade-off that
// Algorithm 1 prunes against a realistic shape.
//
// Decoding is table-driven: Huffman codes of up to 11 bits resolve in one
// lookup on a 64-bit bit buffer, LZ copies move whole literal runs and
// 8-byte match words, and None/Sub/Up rows unfilter in specialised loops.
// Decoders size their buffers only after bounding the untrusted header: an
// entropy block may claim at most 8 bytes per bitstream byte (every symbol
// costs at least a bit), and an LZ stream at most 130 bytes per 3-byte
// token. Either bound rejects only streams that could not decode anyway.

#ifndef SAND_COMPRESS_LOSSLESS_H_
#define SAND_COMPRESS_LOSSLESS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/tensor/frame.h"

namespace sand {

// Raw byte-stream interface (stride = bytes per row; rows = buffer/stride).
// `stride` must divide data.size().
Result<std::vector<uint8_t>> LosslessCompress(std::span<const uint8_t> data, size_t stride);
Result<std::vector<uint8_t>> LosslessDecompress(std::span<const uint8_t> compressed);

// The bit-serial decoder the table-driven one replaced, kept as the golden
// reference: compress_test pins LosslessDecompress to it byte for byte (and
// in ok/error outcome on corrupt input), and bench_micro_substrates times
// both. Test and bench code only.
namespace lossless_reference {

Result<std::vector<uint8_t>> LosslessDecompress(std::span<const uint8_t> compressed);

}  // namespace lossless_reference

// Frame convenience wrappers (stride = width * channels).
Result<std::vector<uint8_t>> CompressFrame(const Frame& frame);
Result<Frame> DecompressFrame(std::span<const uint8_t> compressed);

// Stats for the most common question in tests/benches. An empty sample is a
// neutral 1.0 ratio — 0.0 would read as "infinite compression" downstream.
struct CompressionStats {
  size_t raw_bytes = 0;
  size_t compressed_bytes = 0;
  double Ratio() const {
    if (raw_bytes == 0) {
      return 1.0;
    }
    if (compressed_bytes == 0) {
      return 1.0;
    }
    return static_cast<double>(raw_bytes) / compressed_bytes;
  }
};

}  // namespace sand

#endif  // SAND_COMPRESS_LOSSLESS_H_
