// A from-scratch GOP-structured video codec.
//
// Stands in for libvpx/openh264 in the paper's pipeline. The essential
// property SAND exploits — and this codec reproduces — is inter-frame
// dependency: frames are grouped into GOPs of `gop_size`; each GOP starts
// with an intra-coded I-frame and continues with temporally delta-coded
// P-frames. Randomly accessing frame i therefore requires decoding forward
// from the preceding I-frame, so sparse frame selection decodes many more
// frames than it uses (decode amplification), at real CPU cost.
//
// GOPs are also the unit of intra-video parallelism (DESIGN.md §9): every
// GOP decodes independently from its own I-frame, so a slice decoder
// (GopDecoder) can reconstruct disjoint GOP runs on different threads with
// bit-identical output to the serial cursor walk.
//
// Container layout ("SVC1"):
//   header  : magic(4) ver(u16) width(u16) height(u16) channels(u8)
//             gop(u8) frame_count(u32)
//   index   : frame_count x { type(u8) offset(u64) size(u32) }
//   payload : per-frame compressed bytes (lossless; I = intra, P = delta
//             against the previous reconstructed frame)

#ifndef SAND_CODEC_VIDEO_CODEC_H_
#define SAND_CODEC_VIDEO_CODEC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/worker_pool.h"
#include "src/obs/metrics.h"
#include "src/tensor/frame.h"

namespace sand {

enum class FrameType : uint8_t {
  kIntra = 0,  // I-frame: self-contained
  kDelta = 1,  // P-frame: depends on the previous frame
};

struct VideoEncoderOptions {
  // Frames per GOP. Valid range [1, 255] (the container header stores the
  // GOP size as a u8); 1 = all-intra. Values < 1 are clamped to 1; values
  // > 255 poison the encoder: AddFrame/Finish return InvalidArgument
  // instead of silently truncating the header field.
  int gop_size = 8;
};

// Streaming encoder: feed frames in display order, then Finish().
class VideoEncoder {
 public:
  VideoEncoder(int height, int width, int channels, VideoEncoderOptions options = {});

  // All frames must share the shape given at construction.
  Status AddFrame(const Frame& frame);

  // Produces the container bytes. The encoder is spent afterwards.
  Result<std::vector<uint8_t>> Finish();

  int frame_count() const { return static_cast<int>(index_.size()); }

 private:
  struct IndexEntry {
    FrameType type;
    uint64_t offset;
    uint32_t size;
  };

  int height_;
  int width_;
  int channels_;
  VideoEncoderOptions options_;
  Status init_status_ = Status::Ok();  // invalid construction options
  Frame previous_;  // last reconstructed frame (== source frame: codec is lossless)
  std::vector<IndexEntry> index_;
  std::vector<uint8_t> payload_;
  bool finished_ = false;
};

// Cumulative decoder-side counters; the source of the "frames decoded vs
// frames used" numbers in Fig. 3 / Fig. 16. A value snapshot — the decoder
// keeps each as an InstanceCounter on "sand.decode.<field>", so stats() and
// ResetStats() are safe against a concurrent decode on another thread.
// Slice decoders created from a VideoDecoder share its counters, so a
// GOP-parallel DecodeFrames books into the same stats as the serial walk.
struct DecodeStats {
  uint64_t frames_requested = 0;  // frames the caller asked for
  uint64_t frames_decoded = 0;    // frames actually reconstructed
  uint64_t bytes_read = 0;        // compressed payload bytes consumed
  uint64_t seeks = 0;             // cursor restarts at an I-frame

  double Amplification() const {
    return frames_requested == 0
               ? 0.0
               : static_cast<double>(frames_decoded) / static_cast<double>(frames_requested);
  }
};

class GopDecoder;

// Random-access decoder with a single forward cursor. Decoding frame i
// restarts at the preceding I-frame unless the cursor already sits at or
// before i within the same GOP run.
class VideoDecoder {
 public:
  // Primary entry point: the decoder holds a reference to the shared
  // container, so N concurrent decoders over one video (e.g. demand jobs
  // fed by the ContainerCache) share a single copy of the encoded bytes.
  static Result<VideoDecoder> Open(SharedBytes container);
  // Compat wrapper: adopts the vector (moved, not copied) into a SharedBytes.
  static Result<VideoDecoder> Open(std::vector<uint8_t> container);

  int height() const;
  int width() const;
  int channels() const;
  int gop_size() const;
  int64_t frame_count() const;

  // Decodes a single frame by display index.
  Result<Frame> DecodeFrame(int64_t index);

  // Decodes a set of indices (need not be sorted; duplicates allowed).
  // Sorted internally so one forward pass per GOP run suffices.
  Result<std::vector<Frame>> DecodeFrames(std::span<const int64_t> indices);

  // GOP-parallel variant: partitions the sorted indices by GOP and fans the
  // slices out on `pool` with RunAll (stateless GopDecoder per slice, no
  // shared cursor). Bit-identical output and — from a cold cursor —
  // identical DecodeStats to the serial walk. The caller decodes the first
  // slice and every slice the pool refuses; with `pool == nullptr` it
  // decodes them all. The forward cursor is neither consulted nor advanced.
  Result<std::vector<Frame>> DecodeFrames(std::span<const int64_t> indices, WorkerPool* pool);

  // A stateless slice decoder sharing this decoder's parsed container and
  // stats counters. Cheap to copy; safe to use from many threads at once.
  GopDecoder SliceDecoder() const;

  // Index of the I-frame at or before `index`.
  Result<int64_t> GopStart(int64_t index) const;

  // Snapshot / reset of the per-decoder counters. Atomic against
  // concurrent DecodeFrame calls (which themselves still need external
  // serialization — the forward cursor is single-threaded state).
  DecodeStats stats() const;
  void ResetStats();

 private:
  friend class GopDecoder;

  struct IndexEntry {
    FrameType type;
    uint64_t offset;
    uint32_t size;
  };

  // Everything parsed out of the container at Open time. Immutable after
  // Open, shared (read-only) by the decoder and all of its slice decoders.
  struct Parsed {
    int height = 0;
    int width = 0;
    int channels = 0;
    int gop_size = 0;
    std::vector<IndexEntry> index;
    SharedBytes container;
    size_t payload_base = 0;
  };

  // Per-decoder counters (heap-held so the decoder stays movable and slice
  // decoders can share them). Decoders are created per job, so the process
  // counters they bind to are resolved once per process.
  struct AtomicDecodeStats {
    AtomicDecodeStats();
    DecodeStats Snapshot() const;

    obs::InstanceCounter frames_requested;
    obs::InstanceCounter frames_decoded;
    obs::InstanceCounter bytes_read;
    obs::InstanceCounter seeks;
  };

  VideoDecoder() = default;

  // Reconstructs frame `index` of `parsed` on top of `cursor` (replaced by
  // intra frames, delta-patched by P-frames) and books the decode. The
  // shared body of the cursor walk and the stateless slice path.
  static Status DecodeStep(const Parsed& parsed, int64_t index, Frame& cursor,
                           AtomicDecodeStats& stats);
  static Result<int64_t> GopStartIn(const Parsed& parsed, int64_t index);

  // Reconstructs frame `index` assuming the cursor holds frame index-1 (for
  // delta frames) or nothing (for intra frames).
  Status DecodeIntoCursor(int64_t index);

  std::shared_ptr<const Parsed> parsed_;

  // Forward cursor: the most recently reconstructed frame.
  std::optional<int64_t> cursor_index_;
  Frame cursor_frame_;

  std::shared_ptr<AtomicDecodeStats> stats_ = std::make_shared<AtomicDecodeStats>();
};

// Stateless GOP slice decoder: reconstructs frames of one GOP run
// independently, starting from the run's I-frame, without any shared
// cursor. All methods are const and thread-safe; one GopDecoder (or cheap
// copies of it) can decode many slices concurrently. This is the unit of
// intra-video parallelism: VideoDecoder::DecodeFrames(indices, pool) and
// SubtreeExecutor's GOP-parallel materialization are built on it.
class GopDecoder {
 public:
  // Parses a container of its own (fresh stats counters). To share an
  // existing decoder's container and stats, use VideoDecoder::SliceDecoder.
  static Result<GopDecoder> Open(SharedBytes container);

  int height() const { return parsed_->height; }
  int width() const { return parsed_->width; }
  int channels() const { return parsed_->channels; }
  int gop_size() const { return parsed_->gop_size; }
  int64_t frame_count() const { return static_cast<int64_t>(parsed_->index.size()); }

  // Index of the I-frame at or before `index`.
  Result<int64_t> GopStart(int64_t index) const;

  // Decodes the given indices, which must be ascending (duplicates allowed)
  // and must all lie within the GOP run starting at `gop_start` (an I-frame
  // index). One forward pass from the I-frame to the largest requested
  // index; returns the frames in the order requested. Books one seek, one
  // request per index, and one decode per reconstructed frame into the
  // shared stats, and one sand.decode.frame_latency_ns sample per distinct
  // index — the same accounting as a cold serial walk of the run.
  Result<std::vector<Frame>> DecodeSlice(int64_t gop_start,
                                         std::span<const int64_t> indices) const;

  // Snapshot of the (possibly shared) counters.
  DecodeStats stats() const;

 private:
  friend class VideoDecoder;

  GopDecoder(std::shared_ptr<const VideoDecoder::Parsed> parsed,
             std::shared_ptr<VideoDecoder::AtomicDecodeStats> stats)
      : parsed_(std::move(parsed)), stats_(std::move(stats)) {}

  std::shared_ptr<const VideoDecoder::Parsed> parsed_;
  std::shared_ptr<VideoDecoder::AtomicDecodeStats> stats_;
};

}  // namespace sand

#endif  // SAND_CODEC_VIDEO_CODEC_H_
