#include "src/vfs/sand_api.h"

namespace sand {
namespace {

// Wire tags. Never reuse a retired tag number; add new fields with new
// tags so old decoders skip them. Retired: 1 (readahead window) and 2
// (result pinning); older clients still send them and the decoder skips
// them like any unknown tag.
constexpr uint8_t kWireVersion = 1;
constexpr uint8_t kTagNonblock = 3;

void PutField(std::vector<uint8_t>& out, uint8_t tag, uint64_t value) {
  out.push_back(tag);
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<uint8_t>(value >> shift));
  }
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return value;
}

}  // namespace

std::vector<uint8_t> OpenOptions::Serialize() const {
  std::vector<uint8_t> out;
  out.push_back(kWireVersion);
  out.push_back(1);  // field count
  PutField(out, kTagNonblock, nonblock ? 1 : 0);
  return out;
}

Result<OpenOptions> OpenOptions::Deserialize(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 2) {
    return InvalidArgument("open options: truncated header");
  }
  // Any version is acceptable: the field list is self-describing and
  // unknown tags are skipped. The byte exists so a future incompatible
  // layout can be detected instead of misparsed.
  if (bytes[0] == 0) {
    return InvalidArgument("open options: bad version 0");
  }
  size_t fields = bytes[1];
  if (bytes.size() != 2 + fields * 9) {
    return InvalidArgument("open options: truncated field list");
  }
  OpenOptions options;
  for (size_t i = 0; i < fields; ++i) {
    const uint8_t* field = bytes.data() + 2 + i * 9;
    if (field[0] == kTagNonblock) {
      options.nonblock = GetU64(field + 1) != 0;
    }
    // Any other tag is retired or from a newer peer: tolerated.
  }
  return options;
}

}  // namespace sand
