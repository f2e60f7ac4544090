// Always-on pipeline tracer with bounded memory (DESIGN.md §7, §12).
//
// SAND_SPAN("decode") at the top of a scope records a complete event —
// name, start, duration, small thread id, plus the causal identity of the
// request it belongs to (trace id, span id, parent span id, job id,
// request class from src/common/trace_context.h) — into a fixed-capacity
// ring of atomic slots when the scope exits. Recording is lock-free: one
// fetch_add ticket plus a handful of relaxed stores (~100 ns measured by
// bench_micro_obs), so spans stay enabled in production; once the ring
// wraps, the oldest events are overwritten and counted as
// `sand.trace.dropped`.
//
// While a span is open it is also the thread's current *parent*: nested
// spans and any work submitted to pools/futures/the scheduler from inside
// it inherit its span id as parent_span_id, so chrome://tracing shows one
// connected flame per request instead of disjoint per-thread slivers.
//
// ToChromeJson() renders the ring as Chrome trace-event JSON ("X" complete
// events with trace/span/parent/job/class args, plus "s"/"f" flow events
// linking each child span to its parent across threads). Load it at
// chrome://tracing or ui.perfetto.dev. The dump is exported as the SAND
// view "/.sand/trace" and written by benches under --trace-out.
//
// Ring capacity defaults to 16Ki slots, overridable with the
// SAND_TRACE_RING_SLOTS environment variable or ServiceOptions
// (trace_ring_slots) via Resize(). Resizing swaps in a fresh ring (old
// events are lost); the Tracer, which is never destroyed, keeps every
// retired ring so concurrent lock-free recorders never touch freed memory.
//
// Span names must be string literals (or otherwise immortal): the ring
// stores the pointer, not a copy.

#ifndef SAND_OBS_TRACE_H_
#define SAND_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/threading.h"
#include "src/common/trace_context.h"

namespace sand {
namespace obs {

class Counter;

// One decoded ring event (tests and tools; the JSON dump is built from the
// same data).
struct TraceEvent {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  uint32_t tid = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint32_t job_id = 0;
  RequestClass request_class = RequestClass::kNone;
};

class Tracer {
 public:
  // 16Ki events x 64 B: 1 MiB resident, ~the last few seconds of a busy
  // 8-thread pipeline.
  static constexpr size_t kDefaultCapacity = size_t{1} << 14;

  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Records one complete event under `ctx`. `name` must outlive the tracer
  // (use a literal). Timestamps are SinceProcessStart() nanos. `span_id`
  // is the event's own id (NextSpanId()).
  void Record(const char* name, Nanos start_ns, Nanos duration_ns, uint64_t span_id,
              const TraceContext& ctx);

  // Chrome trace-event JSON of the ring's current contents, oldest first:
  // "X" complete events (with trace/span/parent/job/class args when the
  // event carries a context) plus "s"/"f" flow events stitching children
  // to parents recorded in the same dump.
  std::string ToChromeJson();

  // Decoded copy of the ring's current contents, oldest first (tests).
  std::vector<TraceEvent> Snapshot();

  // Total events ever recorded (those beyond capacity were overwritten).
  uint64_t RecordedCount() const { return head_.load(std::memory_order_relaxed); }
  // Events lost to ring wraparound (mirrored as "sand.trace.dropped").
  uint64_t DroppedCount() const { return dropped_.load(std::memory_order_relaxed); }

  size_t Capacity() const { return ring_.load(std::memory_order_acquire)->slots.size(); }

  // Swaps in a fresh ring of `slots` entries (min 1024). Events already
  // recorded are discarded; the old ring is retired, not freed, so
  // concurrent Record calls that raced the swap stay safe. Intended for
  // startup configuration (ServiceOptions::trace_ring_slots), not steady-
  // state tuning.
  void Resize(size_t slots);

  // Empties the ring (tests / bench phase boundaries). Not linearizable
  // against concurrent Record.
  void Clear();

 private:
  // Every field atomic: slots are re-written in place as the ring wraps
  // while readers may be dumping — each field individually tears-free.
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<int64_t> start_ns{0};
    std::atomic<int64_t> duration_ns{0};
    std::atomic<uint32_t> tid{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_span_id{0};
    std::atomic<uint32_t> job_id{0};
    std::atomic<uint8_t> request_class{0};
  };
  struct Ring {
    explicit Ring(size_t n) : slots(n) {}
    std::vector<Slot> slots;
  };

  Tracer();

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<Ring*> ring_;
  Counter* dropped_counter_;  // registry mirror "sand.trace.dropped"
  // Rings swapped out by Resize, kept for the process lifetime.
  std::mutex retired_mutex_;
  std::vector<std::unique_ptr<Ring>> retired_;
};

// RAII span: captures the start time at construction, records on
// destruction (skipping the ring entirely when tracing is disabled).
// While open, the span is the thread's current trace parent: a context
// without an active trace gets a fresh trace id, so every top-level span
// roots its own trace and nested/submitted work joins it.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(nullptr), start_(0), span_id_(0) {
    if (!Tracer::Get().enabled()) {
      return;
    }
    name_ = name;
    span_id_ = NextSpanId();
    prev_ctx_ = CurrentTraceContext();
    record_ctx_ = prev_ctx_;
    if (!record_ctx_.active()) {
      record_ctx_.trace_id = NextTraceId();
      record_ctx_.parent_span_id = 0;
    }
    TraceContext inner = record_ctx_;
    inner.parent_span_id = span_id_;
    internal::SetCurrentTraceContext(inner);
    start_ = SinceProcessStart();
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      Tracer::Get().Record(name_, start_, SinceProcessStart() - start_, span_id_, record_ctx_);
      // Restore the context from *before* the span — not record_ctx_: a
      // root span allocated a trace id record_ctx_ carries, and restoring
      // it would leave the thread inside that trace forever after.
      internal::SetCurrentTraceContext(prev_ctx_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  Nanos start_;
  uint64_t span_id_;
  TraceContext prev_ctx_;    // thread context at construction, restored on exit
  TraceContext record_ctx_;  // context the span records under (parent = enclosing)
};

}  // namespace obs
}  // namespace sand

#define SAND_SPAN_CONCAT_(a, b) a##b
#define SAND_SPAN_NAME_(line) SAND_SPAN_CONCAT_(sand_span_, line)
// One span covering the rest of the enclosing scope.
#define SAND_SPAN(name) ::sand::obs::ScopedSpan SAND_SPAN_NAME_(__LINE__)(name)

#endif  // SAND_OBS_TRACE_H_
