// SandClient: SandApi over a socket (DESIGN.md §13).
//
// The remote half of the one-API-two-transports split: a training loop
// written against SandApi runs unchanged whether it holds a SandFs or a
// SandClient. Connect() dials the server, performs the HELLO handshake
// binding the connection to a tenant tag, and returns a ready client.
//
// One connection, many requests in flight: every frame carries a u64
// request id, so any number of threads may issue verbs concurrently and a
// single demultiplexing reader thread matches responses — which arrive in
// whatever order the server completes them — back to per-request
// Promises. The sync verbs are the async path plus a Get();
// ReadAllSharedAsync exposes it directly so one thread can keep a window
// of reads outstanding. The reader parses each frame as it arrives, so a
// ReadAll body or a kGetObjects object goes from the socket straight into
// the buffer its SharedBytes hands out: one copy, the kernel's.
//
// Status codes round-trip: a RESOURCE_EXHAUSTED here is the server's
// admission control talking, and retrying after a backoff is the intended
// response. A transport failure poisons the connection: every in-flight
// and future request fails fast with UNAVAILABLE instead of
// desynchronizing request/response pairing.

#ifndef SAND_NET_SAND_CLIENT_H_
#define SAND_NET_SAND_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/future.h"
#include "src/net/wire.h"
#include "src/vfs/sand_api.h"

namespace sand {
namespace net {

class SandClient : public SandApi {
 public:
  struct Options {
    // Dial a unix socket when unix_path is set, else host:port TCP.
    std::string unix_path;
    std::string host = "127.0.0.1";
    int port = -1;
    // Tenant tag sent in HELLO; required.
    std::string tenant;
  };

  // Dials, handshakes, returns a connected client (or the HELLO error —
  // e.g. FAILED_PRECONDITION for an unknown tenant on a server with
  // auto-registration off, or for a peer-cred refusal).
  static Result<std::unique_ptr<SandClient>> Connect(const Options& options);

  ~SandClient() override;

  SandClient(const SandClient&) = delete;
  SandClient& operator=(const SandClient&) = delete;

  // Tenant id the server assigned at HELLO (obs::TenantRegistry dense id).
  uint32_t tenant_id() const { return tenant_id_; }

  using SandApi::Open;
  Result<int> Open(const std::string& path, const OpenOptions& options) override;
  Result<size_t> Read(int fd, std::span<uint8_t> buffer) override;
  Result<size_t> PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) override;
  Result<SharedBytes> ReadAllShared(int fd) override;
  Future<SharedBytes> ReadAllSharedAsync(int fd) override;
  Result<uint64_t> SizeOf(int fd) override;
  Result<std::string> GetXattr(int fd, const std::string& name) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Status Close(int fd) override;

  // Object-store verbs (cluster traffic, not part of SandApi): served only
  // by servers configured with an object-store backend. An object's
  // existence is data on this path, so StatObject answers (exists, size)
  // instead of failing on absence; a server without a backend answers
  // FAILED_PRECONDITION.
  struct ObjectStat {
    bool exists = false;
    uint64_t size = 0;
  };
  Status PutObject(const std::string& key, std::span<const uint8_t> data);
  // Reads `keys` with one kGetObjects request, or more only past
  // kMaxObjectsPerRequest keys or when the server defers found objects
  // past the frame cap (wire.h): one result per key, in order, NOT_FOUND
  // for an absent key. The call fails as a whole when a request does:
  // UNAVAILABLE on a dead connection, or the server's refusal (an older
  // server answers "unknown command").
  Result<std::vector<Result<SharedBytes>>> GetObjects(std::span<const std::string> keys);
  Result<ObjectStat> StatObject(const std::string& key);
  Status DeleteObject(const std::string& key);

 private:
  explicit SandClient(int socket_fd) : socket_fd_(socket_fd) {}

  // How the reader takes a response payload off the socket.
  enum class Shape : uint8_t {
    kInline,   // the whole payload into Response::head
    kBulk,     // ok | u32 size | body (ReadAll): the body into its own buffer
    kObjects,  // ok | kGetObjects table: each found object into its own buffer
  };
  // A response as the reader took it: the payload from the status byte on
  // (for kBulk and kObjects, up to the first body), and the bodies, each
  // read straight from the socket into the buffer that becomes its
  // SharedBytes.
  struct Response {
    std::vector<uint8_t> head;
    std::vector<SharedBytes> bodies;
  };
  struct Pending {
    Shape shape = Shape::kInline;
    Promise<Response> promise;
  };

  // Sends one request built on RequestHead (id slot + command byte + body)
  // and returns a future for its response. Resolves with UNAVAILABLE on a
  // dead connection.
  Future<Response> Issue(std::vector<uint8_t> request, Shape shape);
  // Issue + Get + status decode: the sync round trip.
  Status Call(std::vector<uint8_t> request, Response& response,
              Shape shape = Shape::kInline);

  // Demultiplexer: reads response frames, matches ids to pending promises.
  // Exits when the stream dies or a frame is malformed, failing every
  // pending request with UNAVAILABLE.
  void ReaderLoop();
  // Reads one response payload of `size` bytes (the request id already
  // read) in `shape`; UNAVAILABLE when the stream ends or the payload
  // contradicts itself (the stream can then no longer be trusted).
  Result<Response> ReadPayload(size_t size, Shape shape);
  void StartReader();
  // Fails all pending requests and marks the stream dead. Caller must not
  // hold mutex_.
  void Poison(const Status& status);

  mutable std::mutex mutex_;  // pending_, next_request_id_, dead_, writes
  std::map<uint64_t, Pending> pending_;
  uint64_t next_request_id_ = 1;
  bool dead_ = false;

  std::thread reader_;
  int socket_fd_ = -1;
  uint32_t tenant_id_ = 0;
};

}  // namespace net
}  // namespace sand

#endif  // SAND_NET_SAND_CLIENT_H_
