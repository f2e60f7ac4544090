#include "src/core/rpc_ops.h"

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>

#include "src/common/trace_context.h"
#include "src/net/wire.h"
#include "src/obs/trace.h"

namespace sand {
namespace {

// Request frames lead with the submitting request's trace context so work
// in the op worker process is attributable to the job that caused it:
//   u32 magic "SCTX" | u64 trace_id | u64 parent_span_id | u32 job_id |
//   u32 tenant_id | u8 request_class | <serialized Frame>
// A request without the magic is a bare frame (pre-context peers).
constexpr uint32_t kCtxMagic = 0x53435458;  // "SCTX"
constexpr size_t kCtxHeaderSize = 4 + 8 + 8 + 4 + 4 + 1;

// Frames are net/wire's (u32 length | payload, capped at kMaxFrameBytes), and
// responses lead with its status byte: EncodeOkHead + <serialized Frame>, or
// EncodeErrorResponse's code and message.

template <typename T>
void PutRaw(std::vector<uint8_t>& out, T value) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T GetRaw(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

std::vector<uint8_t> EncodeRequest(const TraceContext& ctx, const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> out;
  out.reserve(kCtxHeaderSize + frame.size());
  PutRaw(out, kCtxMagic);
  PutRaw(out, ctx.trace_id);
  PutRaw(out, ctx.parent_span_id);
  PutRaw(out, ctx.job_id);
  PutRaw(out, ctx.tenant_id);
  PutRaw(out, static_cast<uint8_t>(ctx.request_class));
  out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

// Splits `request` into context + frame bytes. Context is zeroed when the
// header is absent.
std::vector<uint8_t> DecodeRequest(const std::vector<uint8_t>& request, TraceContext* ctx) {
  *ctx = TraceContext{};
  if (request.size() < kCtxHeaderSize || GetRaw<uint32_t>(request.data()) != kCtxMagic) {
    return request;
  }
  ctx->trace_id = GetRaw<uint64_t>(request.data() + 4);
  ctx->parent_span_id = GetRaw<uint64_t>(request.data() + 12);
  ctx->job_id = GetRaw<uint32_t>(request.data() + 20);
  ctx->tenant_id = GetRaw<uint32_t>(request.data() + 24);
  ctx->request_class = static_cast<RequestClass>(request[28]);
  return std::vector<uint8_t>(request.begin() + kCtxHeaderSize, request.end());
}

}  // namespace

void RunOpWorkerLoop(int fd_in, int fd_out, const CustomOpFn& fn) {
  std::vector<uint8_t> request;
  while (net::ReadFrame(fd_in, request)) {
    // Restore the parent's trace context around the op: spans recorded
    // here land in *this worker's* ring (a forked copy), but they carry
    // the caller's trace/span/job ids, so a worker-side dump aligns with
    // the parent's by id.
    TraceContext ctx;
    std::vector<uint8_t> frame_bytes = DecodeRequest(request, &ctx);
    ScopedTraceContext trace_scope(ctx);
    SAND_SPAN("rpc_op_worker");
    Result<Frame> input = Frame::Deserialize(frame_bytes);
    Result<Frame> output = input.ok() ? fn(*input) : Result<Frame>(input.status());
    std::vector<uint8_t> response;
    if (output.ok()) {
      response = net::EncodeOkHead();
      std::vector<uint8_t> frame = output->Serialize();
      response.insert(response.end(), frame.begin(), frame.end());
    } else {
      response = net::EncodeErrorResponse(output.status());
    }
    if (!net::WriteFrame(fd_out, response)) {
      return;
    }
  }
}

Result<std::unique_ptr<SubprocessOpRunner>> SubprocessOpRunner::Spawn(CustomOpFn fn) {
  // One stream socket pair carries both directions. Frames are written
  // with send(MSG_NOSIGNAL), so a worker that died reads as a failed write
  // (EPIPE) instead of SIGPIPE killing this process.
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return Unavailable("socketpair() failed");
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Unavailable("fork() failed");
  }
  if (pid == 0) {
    // Worker: serve until the parent closes its end, then exit without
    // running parent-side destructors (we share its address space copy).
    ::close(fds[0]);
    RunOpWorkerLoop(fds[1], fds[1], fn);
    ::_exit(0);
  }
  ::close(fds[1]);
  return std::unique_ptr<SubprocessOpRunner>(new SubprocessOpRunner(pid, fds[0]));
}

SubprocessOpRunner::~SubprocessOpRunner() {
  ::close(socket_fd_);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

Result<Frame> SubprocessOpRunner::Apply(const Frame& input) {
  SAND_SPAN("rpc_apply");
  std::lock_guard<std::mutex> lock(mutex_);
  if (!net::WriteFrame(socket_fd_, EncodeRequest(CurrentTraceContext(), input.Serialize()))) {
    return Unavailable("op worker pipe closed (write)");
  }
  std::vector<uint8_t> response;
  if (!net::ReadFrame(socket_fd_, response)) {
    return Unavailable("op worker pipe closed or frame too large (read)");
  }
  if (Status status = net::DecodeResponseStatus(response); !status.ok()) {
    // The worker shipped the failing op's own status across the socket;
    // re-raise it so remote failures diagnose like local ones.
    return Status(status.code(), "op worker: " + status.message());
  }
  ++round_trips_;
  return Frame::Deserialize(std::vector<uint8_t>(response.begin() + 1, response.end()));
}

Status SubprocessOpRunner::RegisterAsCustomOp(const std::string& name,
                                              std::unique_ptr<SubprocessOpRunner> runner) {
  auto shared = std::shared_ptr<SubprocessOpRunner>(std::move(runner));
  return CustomOpRegistry::Get().Register(
      name, [shared](const Frame& input) { return shared->Apply(input); });
}

}  // namespace sand
