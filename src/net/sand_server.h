// SandServer: multi-tenant socket front-end for a SandApi backend
// (DESIGN.md §13).
//
// One server process owns a SandFs (and through it the cache and
// scheduler); trainers connect over a unix or loopback TCP socket,
// authenticate to a tenant tag (HELLO), and speak the SandApi verb set in
// length-framed request/response messages. A connection is a session:
// every fd it opens is owned by the connection and force-closed when it
// disconnects, so a trainer crash mid-materialize leaks nothing.
//
// Pipelining: every frame carries a u64 request id; the per-connection
// reader thread admission-checks each request and hands it to the shared
// worker pool immediately, so many requests from one connection execute
// concurrently and responses are written *out of order, as they complete*
// (a per-connection write mutex keeps frames atomic; bulk ReadAllShared
// and kGetObjects payloads leave via scatter-gather writes straight from
// the stores' SharedBytes, no frame-assembly copy).
//
// Tenancy:
//   - HELLO interns the tag in obs::TenantRegistry; the dense id rides
//     TraceContext.tenant_id through every pool task and scheduler job
//     the connection's requests cause, which is what the scheduler's
//     fair-share rotation and running caps key on.
//   - Admission control is two gates, checked per request *before* work
//     starts: the tenant inflight quota (max concurrent requests across
//     all of the tenant's connections — pipelined requests each take a
//     slot, so a deep window cannot bypass the quota) and the shared
//     request pool's bounded queue (WorkerPool::TrySubmit). Either
//     refusal is an immediate RESOURCE_EXHAUSTED response — saturation
//     never blocks the socket, so a client always gets an answer it can
//     retry on.
//   - The storage budget counts bytes of objects a tenant holds open
//     (charged when a read first learns an object's size, released on
//     close/disconnect). Over budget, new Opens are refused with
//     RESOURCE_EXHAUSTED while reads on already-open fds still serve.
//   - Optional SO_PEERCRED auth on unix sockets: with Options::
//     allowed_uids set, HELLO is refused (FAILED_PRECONDITION) unless the
//     peer's kernel-reported uid is on the list — a local process can no
//     longer claim an arbitrary tenant tag just by connecting.
//   - Per-tenant metrics land in "sand.tenant.<tag>.*", served by SandFs
//     as /.sand/tenants/<tag>/metrics — readable over this same protocol.
//
// Threading: one accept thread per listener, one reader thread per
// connection, verbs execute on the shared WorkerPool and write their own
// responses; an optional reaper thread shuts down connections idle past
// Options::idle_timeout_ms (counted in sand.net.idle_reaped), releasing
// their fd and budget charges.

#ifndef SAND_NET_SAND_SERVER_H_
#define SAND_NET_SAND_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/worker_pool.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/vfs/sand_api.h"

namespace sand {

class ObjectStore;

namespace net {

// Per-tenant resource limits. Defaults are permissive; RegisterTenant (or
// Options::default_quotas for auto-registered tenants) tightens them.
struct TenantQuotas {
  // Max wire requests executing concurrently across the tenant's
  // connections; <= 0 means unlimited.
  int max_inflight = 0;
  // Concurrent materialization-scheduler jobs (forwarded to the
  // sched_cap_hook, i.e. MaterializationScheduler::SetTenantRunningCap);
  // <= 0 means uncapped.
  int sched_max_running = 0;
  // Bytes of open objects before new Opens are refused; 0 means unlimited.
  uint64_t storage_budget_bytes = 0;
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_served = 0;
  uint64_t rejected_backpressure = 0;  // pool TrySubmit refusals
  uint64_t rejected_quota = 0;         // tenant inflight / storage refusals
  uint64_t idle_reaped = 0;            // connections closed by the idle reaper
  int active_connections = 0;
};

class SandServer {
 public:
  struct Options {
    // Listen endpoints; enable either or both. TCP binds 127.0.0.1 (port 0
    // picks an ephemeral port, read it back with tcp_port()).
    std::string unix_path;
    int tcp_port = -1;

    // The shared request-execution rail: pool threads block on demand
    // materialization, the bounded queue is the backpressure surface.
    int request_threads = 4;
    size_t request_queue_depth = 64;

    // Unknown HELLO tags get default_quotas when true; otherwise they are
    // refused with FAILED_PRECONDITION.
    bool auto_register_tenants = true;
    TenantQuotas default_quotas;

    // When true, a tenant may only open view paths whose task component is
    // its own tag or "<tag>_..." (control paths under /.sand stay open to
    // everyone). Off by default: single-team deployments share tasks.
    bool isolate_tenant_tasks = false;

    // Connections with no traffic and no requests in flight for longer
    // than this are shut down (their fds and budget charges released);
    // <= 0 disables reaping. Each reap bumps sand.net.idle_reaped.
    int idle_timeout_ms = 0;

    // Unix-socket peer-cred allowlist: when non-empty, HELLO checks the
    // connecting process's uid (SO_PEERCRED) against this list and
    // refuses with FAILED_PRECONDITION on a miss — or when no credential
    // is available at all (TCP), so the allowlist fails closed.
    std::vector<uint32_t> allowed_uids;

    // Wired by the embedder to the scheduler that serves the backend,
    // e.g. [&](uint32_t id, int cap) { sched.SetTenantRunningCap(id, cap); }.
    // Called under the server's tenant lock when quotas are (re)applied.
    std::function<void(uint32_t tenant_id, int max_running)> sched_cap_hook;

    // Optional object-store backend for the cluster verbs (kPutObject,
    // kGetObjects, kStatObject, kDeleteObject): the shard of the object
    // namespace this node owns. Must outlive the server. When null the
    // store verbs answer FAILED_PRECONDITION — a plain serving node.
    ObjectStore* object_store = nullptr;
  };

  // `backend` must outlive the server. The server never closes fds it did
  // not open, so an embedder can share one SandFs with in-process readers.
  SandServer(SandApi* backend, Options options);
  ~SandServer();

  SandServer(const SandServer&) = delete;
  SandServer& operator=(const SandServer&) = delete;

  // Binds listeners and starts the accept loops. Fails (and leaves the
  // server stopped) if no endpoint is configured or a bind fails.
  Status Start();

  // Stops accepting, severs live connections (their fds are closed), joins
  // all threads. Idempotent.
  void Stop();

  // Declares a tenant and its quotas (before or after Start). Re-register
  // to change quotas at runtime.
  void RegisterTenant(const std::string& tag, const TenantQuotas& quotas);

  // Bound TCP port after Start (useful with tcp_port = 0); -1 when TCP is
  // not enabled.
  int tcp_port() const { return bound_tcp_port_; }

  ServerStats stats();

 private:
  struct TenantState {
    TenantQuotas quotas;
    std::atomic<int> inflight{0};
    std::atomic<uint64_t> resident_bytes{0};
  };

  struct Connection {
    int socket_fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};

    // Set once by HandleHello on the reader thread before any concurrent
    // dispatch exists; read-only afterwards.
    uint32_t tenant_id = 0;
    std::string tenant_tag;

    // Response frames from concurrently-completing dispatches must not
    // interleave mid-frame.
    std::mutex write_mutex;

    // fd -> bytes charged against the tenant storage budget (0 until a
    // read learns the object's size). Pipelined dispatches and the inline
    // Close handler touch this concurrently.
    std::mutex fd_mutex;
    std::map<int, uint64_t> owned_fds;

    // Requests dispatched to the pool and not yet answered; teardown
    // waits for zero before closing the session's fds.
    std::mutex inflight_mutex;
    std::condition_variable inflight_cv;
    int inflight = 0;

    // Monotonic ns of the last request frame (idle reaping).
    std::atomic<int64_t> last_active_ns{0};
    std::atomic<bool> reaped{false};
  };

  // A response ready to leave: scalar head (status byte + small body) and
  // the bulk payloads (a ReadAll body, kGetObjects objects) that ride a
  // scatter-gather write after it.
  struct WireResponse {
    WireResponse(std::vector<uint8_t> head_bytes, std::vector<SharedBytes> body_list = {})
        : head(std::move(head_bytes)), bodies(std::move(body_list)) {}
    std::vector<uint8_t> head;
    std::vector<SharedBytes> bodies;
  };

  void AcceptLoop(int listen_fd);
  void ServeConnection(Connection* conn);
  void ReaperLoop();
  // Executes one decoded request, producing the response. Runs on the
  // request pool for data verbs.
  WireResponse Dispatch(Connection* conn, Command command, WireReader& reader);

  // Frames and writes one response (request id prepended) under the
  // connection's write mutex.
  bool WriteResponse(Connection* conn, uint64_t request_id, const WireResponse& response);

  std::vector<uint8_t> HandleHello(Connection* conn, WireReader& reader);
  std::vector<uint8_t> HandleOpen(Connection* conn, WireReader& reader);
  std::vector<uint8_t> HandleClose(Connection* conn, WireReader& reader);

  // Charges `fd`'s object size to the tenant budget once known.
  void ChargeFd(Connection* conn, int fd, uint64_t bytes);
  void ReleaseFd(Connection* conn, int fd);
  bool FdOwned(Connection* conn, int fd) const {
    std::lock_guard<std::mutex> lock(conn->fd_mutex);
    return conn->owned_fds.count(fd) != 0;
  }

  TenantState* TenantFor(uint32_t tenant_id);

  SandApi* backend_;
  Options options_;
  WorkerPool request_pool_;

  std::mutex mutex_;  // listeners_, connections_, running_
  std::condition_variable reaper_cv_;
  std::vector<int> listen_fds_;
  std::vector<std::thread> accept_threads_;
  std::thread reaper_thread_;
  std::vector<std::unique_ptr<Connection>> connections_;
  bool running_ = false;
  int bound_tcp_port_ = -1;

  std::mutex tenants_mutex_;
  std::map<uint32_t, std::unique_ptr<TenantState>> tenants_;

  // Read by stats(). Only idle reaps have a /.sand/metrics counter.
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> rejected_backpressure_{0};
  std::atomic<uint64_t> rejected_quota_{0};
  obs::InstanceCounter idle_reaped_{"sand.net.idle_reaped"};
  std::atomic<int> active_connections_{0};
};

}  // namespace net
}  // namespace sand

#endif  // SAND_NET_SAND_SERVER_H_
