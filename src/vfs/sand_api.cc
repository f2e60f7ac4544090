#include "src/vfs/sand_api.h"

namespace sand {
namespace {

// Wire tags. Never reuse a retired tag number; add new fields with new
// tags so old decoders skip them. Retired: 1 (readahead window), 2 (result
// pinning) and 3 (O_NONBLOCK); older clients still send them and the
// decoder skips them like any unknown tag.
constexpr uint8_t kWireVersion = 1;
constexpr size_t kFieldBytes = 1 + 8;  // u8 tag | u64 LE value

}  // namespace

std::vector<uint8_t> OpenOptions::Serialize() const {
  return {kWireVersion, 0};  // no fields
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
  if (bytes.size() != 2 + fields * kFieldBytes) {
    return InvalidArgument("open options: truncated field list");
  }
  // Every tag is retired or from a newer peer: tolerated.
  return OpenOptions{};
}

}  // namespace sand
