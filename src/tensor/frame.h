// Frame: a dense H x W x C uint8 image tensor.
//
// This is the unit of data flowing through SAND's preprocessing pipeline:
// decoded video frames, augmented frames, and (stacked) training batches all
// use Frame as their storage. Interleaved channel layout, row-major.
//
// Pixels live in an immutable refcounted buffer: copying a Frame shares the
// allocation (refcount bump, no pixel copy), so executor memoization, clip
// assembly, and decoder-cursor returns all alias one allocation. The first
// in-place mutation through MutableData()/storage()/At() clones the payload
// if it is shared (copy-on-write). A Frame may also be a zero-copy *view*
// into a larger shared allocation — e.g. the pixel section of a serialized
// object resident in the memory cache tier (DeserializeShared); views always
// clone before mutating, so cached bytes are never written through.

#ifndef SAND_TENSOR_FRAME_H_
#define SAND_TENSOR_FRAME_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace sand {

class Frame {
 public:
  Frame() = default;
  Frame(int height, int width, int channels)
      : height_(height),
        width_(width),
        channels_(channels),
        size_(static_cast<size_t>(height) * width * channels),
        data_(std::make_shared<std::vector<uint8_t>>(size_, 0)),
        owned_(true) {}
  // Adopts `pixels` as the frame's buffer. Fails with DataLoss unless it
  // holds exactly height * width * channels bytes: the decode paths build
  // frames from untrusted streams through this check.
  static Result<Frame> FromPixels(int height, int width, int channels,
                                  std::vector<uint8_t> pixels);

  int height() const { return height_; }
  int width() const { return width_; }
  int channels() const { return channels_; }
  bool empty() const { return size_ == 0; }
  size_t size_bytes() const { return size_; }

  uint8_t At(int y, int x, int c) const { return Ptr()[Index(y, x, c)]; }
  // Mutable access triggers copy-on-write when the buffer is shared.
  uint8_t& At(int y, int x, int c) { return MutablePtr()[Index(y, x, c)]; }

  std::span<const uint8_t> data() const { return {Ptr(), size_}; }
  // The in-place mutation path: clones the payload first if any other Frame
  // or store entry holds a reference to it.
  std::span<uint8_t> MutableData() { return {MutablePtr(), size_}; }
  std::span<const uint8_t> storage() const { return data(); }
  std::span<uint8_t> storage() { return MutableData(); }

  // How many handles (Frames, store entries, ...) share the underlying
  // allocation. For aliasing tests and benches.
  long buffer_use_count() const { return data_.use_count(); }

  bool SameShape(const Frame& other) const {
    return height_ == other.height_ && width_ == other.width_ && channels_ == other.channels_;
  }

  bool operator==(const Frame& other) const {
    if (!SameShape(other)) {
      return false;
    }
    return size_ == 0 || std::memcmp(Ptr(), other.Ptr(), size_) == 0;
  }

  // Mean pixel intensity over all channels; used by tests and the tiny
  // trainable model as a cheap feature.
  double MeanIntensity() const;

  // Serializes shape + raw pixels (no compression); inverse of Deserialize.
  std::vector<uint8_t> Serialize() const;
  // Copying deserializer: owns a fresh buffer.
  static Result<Frame> Deserialize(std::span<const uint8_t> bytes);
  // Zero-copy deserializer: the returned Frame aliases the pixel section of
  // `bytes` (the cache-hit serving path); no payload allocation happens.
  static Result<Frame> DeserializeShared(SharedBytes bytes);

 private:
  // Unchecked adoption; FromPixels and Deserialize validate the size first.
  Frame(int height, int width, int channels, std::vector<uint8_t> data)
      : height_(height),
        width_(width),
        channels_(channels),
        size_(static_cast<size_t>(height) * width * channels),
        data_(std::make_shared<std::vector<uint8_t>>(std::move(data))),
        owned_(true) {}

  size_t Index(int y, int x, int c) const {
    return (static_cast<size_t>(y) * width_ + x) * channels_ + c;
  }
  const uint8_t* Ptr() const { return data_ ? data_->data() + offset_ : nullptr; }

  // Invariant: owned_ buffers were allocated by this class (as non-const
  // vectors) and start at offset 0; only those may be written in place, and
  // only while exclusively held. Everything else is cloned first.
  void EnsureUnique() {
    if (size_ == 0) {
      return;
    }
    if (owned_ && data_.use_count() == 1) {
      return;
    }
    data_ = std::make_shared<std::vector<uint8_t>>(Ptr(), Ptr() + size_);
    offset_ = 0;
    owned_ = true;
  }
  uint8_t* MutablePtr() {
    EnsureUnique();
    // Safe: EnsureUnique guarantees the buffer is exclusively held and was
    // allocated by Frame as a non-const vector.
    return const_cast<uint8_t*>(data_->data());
  }

  int height_ = 0;
  int width_ = 0;
  int channels_ = 0;
  size_t size_ = 0;
  SharedBytes data_;
  size_t offset_ = 0;
  bool owned_ = false;
};

// A clip is an ordered sequence of frames sampled from one video. Training
// batches stack multiple clips.
struct Clip {
  std::vector<Frame> frames;
  std::vector<int64_t> frame_indices;  // source frame index per entry

  size_t size_bytes() const {
    size_t total = 0;
    for (const auto& f : frames) {
      total += f.size_bytes();
    }
    return total;
  }
};

}  // namespace sand

#endif  // SAND_TENSOR_FRAME_H_
