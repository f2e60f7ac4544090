// A corpus of SLZ1 streams (LosslessCompress output) that pins the
// table-driven LosslessDecompress to lossless_reference::LosslessDecompress.
//
// It holds the streams production decodes — every intra and delta frame
// payload of a synthetic dataset and the SLZ1 bodies of SCO1 containers —
// plus streams it does not: nibble-packed 4-bit and 8-bit quantized pixel
// planes (sco1/quant4, sco1/quant8), whose statistics pixel rows lack, and
// hand-built edge streams the encoder rarely or never emits: a stored
// entropy block, a one-symbol alphabet, 15-bit Huffman codes, LZ matches at
// distances 1-7 and overlapping their own output, hundreds of 3-15 byte
// matches between short literal runs (the shape every stream had before the
// encoder kept only matches of 16 bytes or more, which stored datasets and
// cache objects still hold), 128-byte literal runs, a pixel stride narrower
// than bpp, and a first row under each of the five filters at bpp 1, 3
// and 4.
// compress_test and `bench_micro_compress --smoke` decode it with both
// decoders and require identical bytes.

#ifndef SAND_WORKLOADS_LOSSLESS_CORPUS_H_
#define SAND_WORKLOADS_LOSSLESS_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/workloads/synthetic.h"

namespace sand {

struct LosslessCorpusEntry {
  std::string name;  // e.g. "vid001/f9/delta", "sco1/quant4/0", "edge/one_symbol"
  std::vector<uint8_t> stream;
};

// `dataset` sets the video geometry; its defaults (64x96x3, GOP 8) are the
// data-path benchmark's. Every entry is a valid stream.
Result<std::vector<LosslessCorpusEntry>> BuildLosslessCorpus(
    const SyntheticDatasetOptions& dataset);

}  // namespace sand

#endif  // SAND_WORKLOADS_LOSSLESS_CORPUS_H_
