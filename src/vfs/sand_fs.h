// SandFs: the POSIX-style view filesystem (paper §5.1, Tables 1-2).
//
// The paper mounts SAND through FUSE so unmodified applications reach views
// with open/read/getxattr/close. This repository keeps the identical verb
// surface and path grammar but serves it in-process: applications link the
// library and call SandFs, which forwards to a ViewProvider (the SAND core
// service) for materialization. Every training framework interaction in the
// examples and benches goes through this API only.
//
// Semantics:
//   Open("/{task}")                    -> session fd (task start signal)
//   Open("/{task}/{epoch}/{iter}/view")-> batch view fd
//   Open(frame / aug-frame paths)      -> intermediate object fd
//   Read/PRead(fd)                     -> materializes on first access, then
//                                         copies out of the object buffer
//   GetXattr(fd, name)                 -> view metadata (shape, timestamps)
//   Close(fd)                          -> releases the buffer (and signals
//                                         task end for session fds)
//
// A read costs the thread that issues it: first access calls
// ViewProvider::Materialize on the reading thread (DESIGN.md §8).
//
// Introspection views (served by SandFs itself, no provider round-trip —
// the observability layer exported "in true SAND style"):
//   Open("/.sand/metrics")             -> JSON snapshot of the global obs
//                                         registry (tools/sand_stat reads it)
//   Open("/.sand/trace")               -> Chrome trace-event JSON of the
//                                         span ring buffer (causally linked
//                                         per-request spans, DESIGN.md §12)
//   Open("/.sand/jobs/<tag>/metrics")  -> per-job slice of the registry
//                                         (tags = task names seen so far)
//   Open("/.sand/health")              -> health/SLO verdict
// All snapshot at Open time; Read/PRead/ReadAllShared then behave like any
// view.

#ifndef SAND_VFS_SAND_FS_H_
#define SAND_VFS_SAND_FS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/graph/view.h"
#include "src/obs/metrics.h"
#include "src/vfs/sand_api.h"

namespace sand {

// The materialization backend SandFs delegates to.
class ViewProvider {
 public:
  virtual ~ViewProvider() = default;

  // Produces (or fetches from cache) the object's bytes. Blocks until the
  // object is ready — this is the demand-feeding path, and it runs on the
  // thread that reads the fd.
  virtual Result<SharedBytes> Materialize(const ViewPath& path) = 0;

  // Metadata lookup (Table 2 getxattr).
  virtual Result<std::string> GetMetadata(const ViewPath& path, const std::string& name) = 0;

  // Task session lifecycle (the open/close task signals of §7.3).
  virtual Status OnSessionOpen(const std::string& task) = 0;
  virtual Status OnSessionClose(const std::string& task) = 0;

  // The object's fd was closed; the provider may release memory.
  virtual void OnViewClose(const ViewPath& path) { (void)path; }

  // readdir analogue: names under `path` ("/" lists tasks, "/{task}" lists
  // epochs and videos, ...). Optional; default: not supported.
  virtual Result<std::vector<std::string>> ListChildren(const std::string& path) {
    return Unavailable("listing not supported: " + path);
  }

  // Called before a /.sand control view snapshots: providers refresh
  // gauges that are derived state rather than metric writes (pool queue
  // depths), so the snapshot is current. Optional.
  virtual void PublishObservability() {}
};

struct SandFsStats {
  uint64_t opens = 0;
  uint64_t reads = 0;
  uint64_t closes = 0;
  uint64_t xattrs = 0;
  uint64_t bytes_read = 0;
};

// The in-process SandApi backend: fds resolve directly against the
// ViewProvider, reads are zero-copy references to materialized buffers.
class SandFs : public SandApi {
 public:
  // Prefix of the introspection namespace ("/.sand/...").
  static constexpr const char* kControlRoot = "/.sand";

  explicit SandFs(ViewProvider* provider);

  using SandApi::Open;  // the options-free overload

  // Opens a view or session path; returns a file descriptor.
  Result<int> Open(const std::string& path, const OpenOptions& options) override;

  // Sequential read from the fd's cursor. Returns bytes copied; 0 at EOF.
  Result<size_t> Read(int fd, std::span<uint8_t> buffer) override;

  // Positional read.
  Result<size_t> PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) override;

  // Zero-copy read: a reference to the fd's materialized buffer. The
  // buffer outlives Close(fd) for as long as the caller pins it; treat it
  // as immutable. (The copying ReadAll wrapper this surface once carried
  // was removed after the PR 3 deprecation cycle; see DESIGN.md §13.)
  Result<SharedBytes> ReadAllShared(int fd) override;

  // Size of the object behind fd (materializes if needed).
  Result<uint64_t> SizeOf(int fd) override;

  Result<std::string> GetXattr(int fd, const std::string& name) override;

  // Lists directory entries (readdir analogue), sorted.
  Result<std::vector<std::string>> ListDir(const std::string& path) override;

  Status Close(int fd) override;

  SandFsStats stats();

  // Process-global registry of extra control views: subsystems that live
  // above the VFS (e.g. the cluster layer, which depends on net which
  // depends on vfs) publish "/.sand/<name>" without a layering cycle by
  // registering a renderer here. The renderer runs at Open and its output
  // is snapshotted into the control fd, exactly like the built-in views;
  // it must be thread-safe and must not call back into a SandFs.
  // Re-registering a name replaces the renderer; registering an empty
  // function unregisters it. Built-in names cannot be overridden.
  using ControlRenderer = std::function<std::string()>;
  static void RegisterControlView(const std::string& name, ControlRenderer renderer);

 private:
  struct FdEntry {
    bool is_session = false;
    bool is_control = false;  // /.sand/* fd; data snapshotted at Open
    std::string session_task;
    ViewPath path;
    uint64_t cursor = 0;
    SharedBytes data;  // after first access
  };

  // Ensures entry.data is materialized, on the calling thread. Caller must
  // NOT hold mutex_.
  Status EnsureData(int fd);

  // Serves Open("/.sand/...") given the components after ".sand";
  // NotFound for unknown names.
  Result<int> OpenControl(const std::vector<std::string>& parts);

  ViewProvider* provider_;
  std::mutex mutex_;
  std::map<int, FdEntry> fds_;
  int next_fd_ = 3;  // skip stdin/stdout/stderr numbers for familiarity

  // Verb counts, read by stats() ("sand.fs.<field>" in /.sand/metrics).
  obs::InstanceCounter opens_{"sand.fs.opens"};
  obs::InstanceCounter reads_{"sand.fs.reads"};
  obs::InstanceCounter closes_{"sand.fs.closes"};
  obs::InstanceCounter xattrs_{"sand.fs.xattrs"};
  obs::InstanceCounter bytes_read_{"sand.fs.bytes_read"};
  // Reader-observed wait per materializing access; the health monitor's
  // p99 SLO input.
  obs::Histogram* materialize_wait_ns_;
};

}  // namespace sand

#endif  // SAND_VFS_SAND_FS_H_
