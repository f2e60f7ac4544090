#include "src/common/trace_context.h"

#include <atomic>

namespace sand {

namespace {

thread_local TraceContext g_current;

std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint64_t> g_next_span_id{1};

}  // namespace

const char* RequestClassName(RequestClass c) {
  switch (c) {
    case RequestClass::kNone:
      return "none";
    case RequestClass::kDemand:
      return "demand";
    case RequestClass::kPreMaterialize:
      return "pre_materialize";
    case RequestClass::kMaintenance:
      return "maintenance";
  }
  return "unknown";
}

const TraceContext& CurrentTraceContext() { return g_current; }

uint64_t NextTraceId() { return g_next_trace_id.fetch_add(1, std::memory_order_relaxed); }

uint64_t NextSpanId() { return g_next_span_id.fetch_add(1, std::memory_order_relaxed); }

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx) : previous_(g_current) {
  g_current = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { g_current = previous_; }

TraceContext BeginRequestContext(uint32_t job_id, RequestClass request_class) {
  TraceContext ctx = g_current;
  if (!ctx.active()) {
    ctx.trace_id = NextTraceId();
    ctx.parent_span_id = 0;
  }
  // Attribution always reflects the innermost request entry: a SandFs read
  // inside a server request takes the read's job and class. The tenant, by
  // contrast, is a property of the *connection* (set by the socket
  // front-end before any request entry), so it is inherited as-is.
  ctx.job_id = job_id;
  ctx.request_class = request_class;
  return ctx;
}

namespace internal {
void SetCurrentTraceContext(const TraceContext& ctx) { g_current = ctx; }
}  // namespace internal

}  // namespace sand
