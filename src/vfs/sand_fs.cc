#include "src/vfs/sand_fs.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/common/trace_context.h"
#include "src/obs/attribution.h"
#include "src/obs/health.h"
#include "src/obs/trace.h"

namespace sand {

namespace {

// Registered extra control views ("/.sand/<name>"). Process-global like
// the obs registry the built-in views render from; a mutex-guarded map is
// fine because renderers only run on the cold control-open path.
struct ControlViewRegistry {
  std::mutex mutex;
  std::map<std::string, SandFs::ControlRenderer> renderers;

  static ControlViewRegistry& Get() {
    static ControlViewRegistry* registry = new ControlViewRegistry();
    return *registry;
  }
};

bool IsBuiltinControlName(const std::string& name) {
  return name == "health" || name == "jobs" || name == "metrics" || name == "tenants" ||
         name == "trace";
}

}  // namespace

void SandFs::RegisterControlView(const std::string& name, ControlRenderer renderer) {
  if (name.empty() || IsBuiltinControlName(name)) {
    return;
  }
  ControlViewRegistry& registry = ControlViewRegistry::Get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (renderer) {
    registry.renderers[name] = std::move(renderer);
  } else {
    registry.renderers.erase(name);
  }
}

SandFs::SandFs(ViewProvider* provider)
    : provider_(provider),
      materialize_wait_ns_(obs::Registry::Get().GetHistogram("sand.fs.materialize_wait_ns")) {}

Result<int> SandFs::OpenControl(const std::vector<std::string>& parts) {
  // Derived gauges (pool depths) are provider state, not metric writes;
  // let it publish them before we snapshot.
  provider_->PublishObservability();
  std::string body;
  const std::string& name = parts[0];
  if (parts.size() == 1 && name == "metrics") {
    body = obs::Registry::Get().ToJson();
  } else if (parts.size() == 1 && name == "trace") {
    body = obs::Tracer::Get().ToChromeJson();
  } else if (parts.size() == 1 && name == "health") {
    body = obs::EvaluateHealthToJson();
  } else if (parts.size() == 3 && name == "jobs" && parts[2] == "metrics") {
    // "/.sand/jobs/<tag>/metrics": the job's slice of the registry with
    // the "sand.job.<tag>." prefix stripped back off.
    const std::string& tag = parts[1];
    bool known = false;
    for (const std::string& t : obs::JobRegistry::Get().Tags()) {
      if (t == tag) {
        known = true;
        break;
      }
    }
    if (!known) {
      return NotFound(std::string("no job: ") + kControlRoot + "/jobs/" + tag);
    }
    body = obs::Registry::Get().ToJson("sand.job." + tag + ".", /*strip_prefix=*/true);
  } else if (parts.size() == 3 && name == "tenants" && parts[2] == "metrics") {
    // "/.sand/tenants/<tag>/metrics": the tenant's registry slice — the
    // socket front-end's per-tenant sessions/requests/rejections/bytes
    // plus whatever the scheduler attributed to it.
    const std::string& tag = parts[1];
    bool known = false;
    for (const std::string& t : obs::TenantRegistry::Get().Tags()) {
      if (t == tag) {
        known = true;
        break;
      }
    }
    if (!known) {
      return NotFound(std::string("no tenant: ") + kControlRoot + "/tenants/" + tag);
    }
    body = obs::Registry::Get().ToJson("sand.tenant." + tag + ".", /*strip_prefix=*/true);
  } else {
    // Registered views last: built-in names always win, and the renderer
    // runs outside the registry lock (it may be slow — e.g. the cluster
    // layer probing peer health).
    ControlRenderer renderer;
    if (parts.size() == 1) {
      ControlViewRegistry& registry = ControlViewRegistry::Get();
      std::lock_guard<std::mutex> lock(registry.mutex);
      auto it = registry.renderers.find(name);
      if (it != registry.renderers.end()) {
        renderer = it->second;
      }
    }
    if (!renderer) {
      std::string joined = parts[0];
      for (size_t i = 1; i < parts.size(); ++i) {
        joined += "/" + parts[i];
      }
      return NotFound(std::string("no control view: ") + kControlRoot + "/" + joined);
    }
    body = renderer();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  int fd = next_fd_++;
  FdEntry entry;
  entry.is_control = true;
  entry.data = std::make_shared<const std::vector<uint8_t>>(body.begin(), body.end());
  fds_[fd] = std::move(entry);
  opens_.Add(1);
  return fd;
}

Result<int> SandFs::Open(const std::string& path, const OpenOptions& /*options*/) {
  if (path.empty() || path.front() != '/') {
    return InvalidArgument("open: path must be absolute: " + path);
  }
  // "/{task}" with no further components is a session handle.
  std::vector<std::string> parts = Split(std::string_view(path).substr(1), '/');
  // The introspection namespace is served by the fs itself: the metrics
  // snapshot, trace dump, per-job slices and health verdict are views like
  // everything else in SAND.
  if (parts.size() >= 2 && parts[0] == ".sand") {
    return OpenControl(std::vector<std::string>(parts.begin() + 1, parts.end()));
  }
  if (parts.size() == 1 && parts[0] == ".sand") {
    return InvalidArgument("open: /.sand is a directory (use ListDir)");
  }
  if (parts.size() == 1 && !parts[0].empty()) {
    SAND_RETURN_IF_ERROR(provider_->OnSessionOpen(parts[0]));
    std::lock_guard<std::mutex> lock(mutex_);
    int fd = next_fd_++;
    FdEntry entry;
    entry.is_session = true;
    entry.session_task = parts[0];
    fds_[fd] = std::move(entry);
    opens_.Add(1);
    return fd;
  }
  SAND_ASSIGN_OR_RETURN(ViewPath view, ViewPath::Parse(path));
  std::lock_guard<std::mutex> lock(mutex_);
  int fd = next_fd_++;
  FdEntry entry;
  entry.path = std::move(view);
  fds_[fd] = std::move(entry);
  opens_.Add(1);
  return fd;
}

Status SandFs::EnsureData(int fd) {
  ViewPath path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fds_.find(fd);
    if (it == fds_.end()) {
      return InvalidArgument(StrFormat("bad fd %d", fd));
    }
    if (it->second.is_session) {
      return InvalidArgument("read on a session fd");
    }
    if (it->second.data != nullptr) {
      return Status::Ok();
    }
    path = it->second.path;
  }
  // This access materializes: it is a demand request entry. Root a trace
  // here (continuing any enclosing one) and attribute everything the
  // request causes — scheduler parts, decode slices, rpc round trips — to
  // the task as job. Every span below parents under "fs_ensure_data".
  uint32_t job_id = obs::JobRegistry::Get().Intern(path.task);
  ScopedTraceContext trace_scope(BeginRequestContext(job_id, RequestClass::kDemand));
  SAND_SPAN("fs_ensure_data");
  Nanos wait_start = SinceProcessStart();
  // Materialize on this thread, outside mutex_: this may block on
  // preprocessing. Concurrent first reads of one fd each materialize; the
  // first to finish fills the entry.
  Result<SharedBytes> result = provider_->Materialize(path);
  if (!result.ok()) {
    return result.status();
  }
  SharedBytes data = result.TakeValue();
  uint64_t waited = static_cast<uint64_t>(SinceProcessStart() - wait_start);
  materialize_wait_ns_->Record(waited);
  if (obs::JobMetrics* job = obs::JobMetricsFor(job_id)) {
    job->materialize_wait_ns->Record(waited);
    job->reads->Add(1);
    job->bytes_read->Add(data->size());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument(StrFormat("fd %d closed during read", fd));
  }
  if (it->second.data == nullptr) {
    it->second.data = std::move(data);
  }
  return Status::Ok();
}

Result<size_t> SandFs::Read(int fd, std::span<uint8_t> buffer) {
  SAND_RETURN_IF_ERROR(EnsureData(fd));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument(StrFormat("bad fd %d", fd));
  }
  FdEntry& entry = it->second;
  const std::vector<uint8_t>& data = *entry.data;
  if (entry.cursor >= data.size()) {
    return static_cast<size_t>(0);
  }
  size_t count = std::min(buffer.size(), data.size() - static_cast<size_t>(entry.cursor));
  std::memcpy(buffer.data(), data.data() + entry.cursor, count);
  entry.cursor += count;
  reads_.Add(1);
  bytes_read_.Add(count);
  return count;
}

Result<size_t> SandFs::PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) {
  SAND_RETURN_IF_ERROR(EnsureData(fd));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument(StrFormat("bad fd %d", fd));
  }
  const std::vector<uint8_t>& data = *it->second.data;
  if (offset >= data.size()) {
    return static_cast<size_t>(0);
  }
  size_t count = std::min(buffer.size(), data.size() - static_cast<size_t>(offset));
  std::memcpy(buffer.data(), data.data() + offset, count);
  reads_.Add(1);
  bytes_read_.Add(count);
  return count;
}

Result<SharedBytes> SandFs::ReadAllShared(int fd) {
  SAND_RETURN_IF_ERROR(EnsureData(fd));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument(StrFormat("bad fd %d", fd));
  }
  reads_.Add(1);
  bytes_read_.Add(it->second.data->size());
  return it->second.data;
}

Result<uint64_t> SandFs::SizeOf(int fd) {
  SAND_RETURN_IF_ERROR(EnsureData(fd));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument(StrFormat("bad fd %d", fd));
  }
  return static_cast<uint64_t>(it->second.data->size());
}

Result<std::string> SandFs::GetXattr(int fd, const std::string& name) {
  ViewPath path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fds_.find(fd);
    if (it == fds_.end()) {
      return InvalidArgument(StrFormat("bad fd %d", fd));
    }
    if (it->second.is_session) {
      return InvalidArgument("getxattr on a session fd");
    }
    if (it->second.is_control) {
      return InvalidArgument("getxattr on a control fd");
    }
    path = it->second.path;
    xattrs_.Add(1);
  }
  return provider_->GetMetadata(path, name);
}

Result<std::vector<std::string>> SandFs::ListDir(const std::string& path) {
  if (path.empty() || path.front() != '/') {
    return InvalidArgument("listdir: path must be absolute: " + path);
  }
  if (path == kControlRoot || path == std::string(kControlRoot) + "/") {
    std::vector<std::string> entries{"health", "jobs", "metrics", "tenants", "trace"};
    {
      ControlViewRegistry& registry = ControlViewRegistry::Get();
      std::lock_guard<std::mutex> lock(registry.mutex);
      for (const auto& [name, renderer] : registry.renderers) {
        entries.push_back(name);
      }
    }
    std::sort(entries.begin(), entries.end());
    return entries;
  }
  if (path == std::string(kControlRoot) + "/jobs") {
    return obs::JobRegistry::Get().Tags();  // already sorted
  }
  if (path.rfind(std::string(kControlRoot) + "/jobs/", 0) == 0) {
    return std::vector<std::string>{"metrics"};
  }
  if (path == std::string(kControlRoot) + "/tenants") {
    return obs::TenantRegistry::Get().Tags();  // already sorted
  }
  if (path.rfind(std::string(kControlRoot) + "/tenants/", 0) == 0) {
    return std::vector<std::string>{"metrics"};
  }
  SAND_ASSIGN_OR_RETURN(std::vector<std::string> children, provider_->ListChildren(path));
  std::sort(children.begin(), children.end());
  return children;
}

Status SandFs::Close(int fd) {
  FdEntry entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fds_.find(fd);
    if (it == fds_.end()) {
      return InvalidArgument(StrFormat("bad fd %d", fd));
    }
    entry = std::move(it->second);
    fds_.erase(it);
    closes_.Add(1);
  }
  if (entry.is_session) {
    return provider_->OnSessionClose(entry.session_task);  // §7.3 task-end signal
  }
  if (entry.is_control) {
    return Status::Ok();  // nothing provider-side to release
  }
  provider_->OnViewClose(entry.path);
  return Status::Ok();
}

SandFsStats SandFs::stats() {
  SandFsStats stats;
  stats.opens = opens_.Value();
  stats.reads = reads_.Value();
  stats.closes = closes_.Value();
  stats.xattrs = xattrs_.Value();
  stats.bytes_read = bytes_read_.Value();
  return stats;
}

}  // namespace sand
