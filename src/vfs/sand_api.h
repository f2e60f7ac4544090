// SandApi: the client-facing SAND surface, transport-agnostic.
//
// The paper's abstraction is a filesystem: open a view path, read the
// bytes, ask for metadata, close. This interface captures exactly that
// verb set so a training loop (or bench, or tool) is written once against
// SandApi and runs unmodified over either backend:
//
//   SandFs      - in-process: calls straight into the ViewProvider
//                 (src/vfs/sand_fs.h)
//   SandClient  - remote: speaks the framed socket protocol to a
//                 SandServer, which fronts a SandFs in another process
//                 (src/net/sand_client.h)
//
// File descriptors are opaque ints scoped to the backend instance. All
// methods are thread-safe on both implementations. The synchronous verbs
// block the calling thread until they are done: in-process, a first read
// materializes the view on that thread. Errors use the shared Status
// space; notably RESOURCE_EXHAUSTED over the wire means "admission control
// refused this" (tenant quota / backpressure) and is always retryable.

#ifndef SAND_VFS_SAND_API_H_
#define SAND_VFS_SAND_API_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/future.h"
#include "src/common/result.h"

namespace sand {

// Per-open knobs (the O_* analogue of Table 2's open flags). It has no
// fields: every open is blocking, and a read materializes on the thread
// that issues it.
//
// OpenOptions crosses the process boundary (SandClient sends it with every
// OPEN), so it has a versioned, unknown-field-tolerant wire form: each
// field is a (tag, u64 value) pair; decoders skip tags they don't know, so
// an old server accepts a new client's options and vice versa.
struct OpenOptions {
  // Wire form: u8 version | u8 field_count | field_count x (u8 tag,
  // u64 LE value). Serialize writes no fields; Deserialize checks the
  // layout and skips every tag (retired or from a newer peer).
  std::vector<uint8_t> Serialize() const;
  static Result<OpenOptions> Deserialize(const std::vector<uint8_t>& bytes);

  bool operator==(const OpenOptions&) const = default;
};

// The one-API-two-transports interface. Matches SandFs's historical
// surface method for method; see the SandFs header for per-verb
// semantics.
class SandApi {
 public:
  virtual ~SandApi() = default;

  Result<int> Open(const std::string& path) { return Open(path, OpenOptions{}); }
  virtual Result<int> Open(const std::string& path, const OpenOptions& options) = 0;

  // Sequential read from the fd's cursor. Returns bytes copied; 0 at EOF.
  virtual Result<size_t> Read(int fd, std::span<uint8_t> buffer) = 0;

  // Positional read.
  virtual Result<size_t> PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) = 0;

  // The whole object as a shared immutable buffer. In-process this is the
  // materialized allocation itself (zero-copy); remote it is the one
  // receive buffer of the response (one copy, off the wire).
  virtual Result<SharedBytes> ReadAllShared(int fd) = 0;

  // Asynchronous bulk read: resolves to exactly what ReadAllShared(fd)
  // would return. The base adapter resolves synchronously (in-process
  // reads are already cache-speed); SandClient overrides it with a truly
  // pipelined implementation — many async reads issued back-to-back share
  // one connection and complete out of order, so a trainer overlaps its
  // next batches' wire latency with the current step. A refused request
  // (RESOURCE_EXHAUSTED) resolves the future with that status; retry with
  // backoff exactly as for the sync verb.
  virtual Future<SharedBytes> ReadAllSharedAsync(int fd) {
    return Future<SharedBytes>::FromResult(ReadAllShared(fd));
  }

  // Size of the object behind fd (materializes if needed).
  virtual Result<uint64_t> SizeOf(int fd) = 0;

  virtual Result<std::string> GetXattr(int fd, const std::string& name) = 0;

  // Lists directory entries (readdir analogue), sorted.
  virtual Result<std::vector<std::string>> ListDir(const std::string& path) = 0;

  virtual Status Close(int fd) = 0;
};

}  // namespace sand

#endif  // SAND_VFS_SAND_API_H_
