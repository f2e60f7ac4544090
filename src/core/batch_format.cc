#include "src/core/batch_format.h"

#include <cstring>

namespace sand {
namespace {

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

}  // namespace

Result<std::vector<uint8_t>> SerializeBatch(const std::vector<Clip>& clips) {
  if (clips.empty() || clips[0].frames.empty()) {
    return InvalidArgument("SerializeBatch: empty batch");
  }
  const Frame& ref = clips[0].frames[0];
  for (const Clip& clip : clips) {
    if (clip.frames.size() != clips[0].frames.size()) {
      return InvalidArgument("SerializeBatch: clip length mismatch");
    }
    for (const Frame& frame : clip.frames) {
      if (!frame.SameShape(ref)) {
        return InvalidArgument("SerializeBatch: frame shape mismatch");
      }
    }
  }
  std::vector<uint8_t> out;
  out.reserve(kBatchHeaderBytes +
              clips.size() * clips[0].frames.size() * ref.size_bytes());
  PutU32(out, static_cast<uint32_t>(clips.size()));
  PutU32(out, static_cast<uint32_t>(clips[0].frames.size()));
  PutU32(out, static_cast<uint32_t>(ref.height()));
  PutU32(out, static_cast<uint32_t>(ref.width()));
  PutU32(out, static_cast<uint32_t>(ref.channels()));
  for (const Clip& clip : clips) {
    for (const Frame& frame : clip.frames) {
      out.insert(out.end(), frame.data().begin(), frame.data().end());
    }
  }
  return out;
}

Result<BatchHeader> ParseBatchHeader(std::span<const uint8_t> bytes) {
  if (bytes.size() < kBatchHeaderBytes) {
    return DataLoss("batch header truncated");
  }
  BatchHeader header;
  header.n_clips = GetU32(bytes, 0);
  header.frames_per_clip = GetU32(bytes, 4);
  header.height = GetU32(bytes, 8);
  header.width = GetU32(bytes, 12);
  header.channels = GetU32(bytes, 16);
  if (bytes.size() - kBatchHeaderBytes != header.PixelBytes()) {
    return DataLoss("batch payload size mismatch");
  }
  return header;
}

Result<std::vector<Clip>> ParseBatch(std::span<const uint8_t> bytes) {
  SAND_ASSIGN_OR_RETURN(BatchHeader header, ParseBatchHeader(bytes));
  std::vector<Clip> clips;
  clips.reserve(header.n_clips);
  size_t frame_bytes =
      static_cast<size_t>(header.height) * header.width * header.channels;
  size_t offset = kBatchHeaderBytes;
  for (uint32_t n = 0; n < header.n_clips; ++n) {
    Clip clip;
    for (uint32_t t = 0; t < header.frames_per_clip; ++t) {
      std::vector<uint8_t> pixels(bytes.begin() + offset, bytes.begin() + offset + frame_bytes);
      SAND_ASSIGN_OR_RETURN(Frame frame, Frame::FromPixels(static_cast<int>(header.height),
                                                           static_cast<int>(header.width),
                                                           static_cast<int>(header.channels),
                                                           std::move(pixels)));
      clip.frames.push_back(std::move(frame));
      offset += frame_bytes;
    }
    clips.push_back(std::move(clip));
  }
  return clips;
}

}  // namespace sand
