// TraceContext: request-scoped causal identity (DESIGN.md §12).
//
// Every asynchronous hop in the demand path — Future continuations,
// WorkerPool tasks, scheduler jobs, GOP decode slices, rpc_ops round
// trips — carries one of these so spans recorded on any thread can be
// stitched back into the request that caused them:
//
//   trace_id        - one per request (an Open+read, a server request);
//                     0 means "no active trace" and the next root span
//                     starts a fresh one
//   parent_span_id  - the span the next recorded span should parent under
//   job_id          - interned job/tenant tag (obs::JobRegistry); 0 means
//                     unattributed
//   request_class   - demand / pre-materialization / maintenance, for
//                     filtering and SLO accounting
//
// The context lives in a thread_local; it is *captured by value* at every
// task-submission boundary (WorkerPool::TrySubmit, scheduler Submit,
// Future::OnReady) and restored around the task body on the running
// thread. This file sits in src/common (below src/obs) so the pool and
// future primitives can capture it without a layering cycle; the tracer in
// src/obs reads it when recording spans.

#ifndef SAND_COMMON_TRACE_CONTEXT_H_
#define SAND_COMMON_TRACE_CONTEXT_H_

#include <cstdint>

namespace sand {

// Why a unit of work is running; propagated with the trace identity. The
// value crosses processes in rpc_ops frames, so numbers are never reused:
// 2 (speculative readahead) is retired.
enum class RequestClass : uint8_t {
  kNone = 0,
  kDemand = 1,          // a reader is blocked on this right now
  kPreMaterialize = 3,  // background chunk pre-materialization
  kMaintenance = 4,     // planning, eviction, checkpointing
};

const char* RequestClassName(RequestClass c);

struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  uint32_t job_id = 0;
  // Interned tenant tag (obs::TenantRegistry); 0 means "no tenant" (an
  // in-process caller). Set once by the socket front-end when a connection
  // authenticates and then inherited by everything the request causes —
  // pool tasks, scheduler jobs, decode slices — so the scheduler can
  // fair-share across tenants and metrics attribute to them.
  uint32_t tenant_id = 0;
  RequestClass request_class = RequestClass::kNone;

  bool active() const { return trace_id != 0; }
};

// The calling thread's current context (zeroed until something sets it).
const TraceContext& CurrentTraceContext();

// Process-unique ids (never 0). Monotonic counters, not random: runs are
// deterministic and ids double as creation order.
uint64_t NextTraceId();
uint64_t NextSpanId();

// RAII: installs `ctx` as the thread's current context, restores the
// previous one on destruction. Cheap (two thread_local copies).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

// A root context for a new request: fresh trace id, no parent span. When
// the thread already has an active trace (nested request entry), that
// trace is continued instead so causality is never severed.
TraceContext BeginRequestContext(uint32_t job_id, RequestClass request_class);

namespace internal {
// For ScopedSpan (src/obs/trace.h): mutates the current context in place.
void SetCurrentTraceContext(const TraceContext& ctx);
}  // namespace internal

}  // namespace sand

#endif  // SAND_COMMON_TRACE_CONTEXT_H_
