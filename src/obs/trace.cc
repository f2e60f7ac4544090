#include "src/obs/trace.h"

#include <cstdlib>
#include <iomanip>
#include <map>
#include <sstream>

#include "src/obs/attribution.h"
#include "src/obs/metrics.h"

namespace sand {
namespace obs {

namespace {

size_t InitialCapacity() {
  const char* env = std::getenv("SAND_TRACE_RING_SLOTS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return v < 1024 ? 1024 : static_cast<size_t>(v);
    }
  }
  return Tracer::kDefaultCapacity;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: spans may outlive main
  return *tracer;
}

Tracer::Tracer()
    : ring_(new Ring(InitialCapacity())),
      dropped_counter_(Registry::Get().GetCounter("sand.trace.dropped")) {}

void Tracer::Record(const char* name, Nanos start_ns, Nanos duration_ns, uint64_t span_id,
                    const TraceContext& ctx) {
  Ring* ring = ring_.load(std::memory_order_acquire);
  const size_t capacity = ring->slots.size();
  uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  if (ticket >= capacity) {
    // The slot we claim overwrites the event recorded `capacity` tickets
    // ago; surface the loss instead of silently forgetting it.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    dropped_counter_->Add(1);
  }
  Slot& slot = ring->slots[ticket % capacity];
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.duration_ns.store(duration_ns, std::memory_order_relaxed);
  slot.tid.store(SmallThreadId(), std::memory_order_relaxed);
  slot.trace_id.store(ctx.trace_id, std::memory_order_relaxed);
  slot.span_id.store(span_id, std::memory_order_relaxed);
  slot.parent_span_id.store(ctx.parent_span_id, std::memory_order_relaxed);
  slot.job_id.store(ctx.job_id, std::memory_order_relaxed);
  slot.request_class.store(static_cast<uint8_t>(ctx.request_class), std::memory_order_relaxed);
  // Name last: a dump observing the name sees plausible (if possibly
  // mixed-generation) numeric fields, never uninitialized ones.
  slot.name.store(name, std::memory_order_release);
}

std::vector<TraceEvent> Tracer::Snapshot() {
  Ring* ring = ring_.load(std::memory_order_acquire);
  const size_t capacity = ring->slots.size();
  uint64_t head = head_.load(std::memory_order_relaxed);
  uint64_t count = head < capacity ? head : capacity;
  uint64_t first = head - count;  // oldest surviving ticket
  std::vector<TraceEvent> events;
  events.reserve(count);
  for (uint64_t ticket = first; ticket < head; ++ticket) {
    const Slot& slot = ring->slots[ticket % capacity];
    const char* name = slot.name.load(std::memory_order_acquire);
    if (name == nullptr) {
      continue;  // slot claimed by a racing Record that hasn't finished
    }
    TraceEvent ev;
    ev.name = name;
    ev.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    ev.duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
    ev.tid = slot.tid.load(std::memory_order_relaxed);
    ev.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    ev.span_id = slot.span_id.load(std::memory_order_relaxed);
    ev.parent_span_id = slot.parent_span_id.load(std::memory_order_relaxed);
    ev.job_id = slot.job_id.load(std::memory_order_relaxed);
    ev.request_class =
        static_cast<RequestClass>(slot.request_class.load(std::memory_order_relaxed));
    events.push_back(ev);
  }
  return events;
}

std::string Tracer::ToChromeJson() {
  std::vector<TraceEvent> events = Snapshot();
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);  // microseconds with ns resolution
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool any = false;
  for (const TraceEvent& ev : events) {
    double ts_us = static_cast<double>(ev.start_ns) / 1e3;
    double dur_us = static_cast<double>(ev.duration_ns) / 1e3;
    out << (any ? ",\n" : "\n") << "  {\"name\": \"" << ev.name
        << "\", \"cat\": \"sand\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << ev.tid
        << ", \"ts\": " << ts_us << ", \"dur\": " << dur_us;
    if (ev.trace_id != 0) {
      out << ", \"args\": {\"trace\": " << ev.trace_id << ", \"span\": " << ev.span_id
          << ", \"parent\": " << ev.parent_span_id << ", \"job\": \""
          << JobRegistry::Get().NameOf(ev.job_id) << "\", \"class\": \""
          << RequestClassName(ev.request_class) << "\"}";
    }
    out << "}";
    any = true;
  }
  // Flow events stitch cross-thread parent->child edges: for each event
  // whose parent span is also in the dump on a *different* thread, emit a
  // "s" (flow start) at the parent and a matching "f" (flow end, binding
  // point "enclosing slice") at the child. Same-thread nesting is already
  // visible as stacking, so no arrow is drawn for it.
  std::map<uint64_t, const TraceEvent*> by_span;
  for (const TraceEvent& ev : events) {
    if (ev.span_id != 0) {
      by_span[ev.span_id] = &ev;
    }
  }
  for (const TraceEvent& ev : events) {
    if (ev.parent_span_id == 0) {
      continue;
    }
    auto it = by_span.find(ev.parent_span_id);
    if (it == by_span.end() || it->second->tid == ev.tid) {
      continue;
    }
    const TraceEvent& parent = *it->second;
    // Anchor the flow start inside the parent slice at the child's launch
    // time when it falls within the parent, else at the parent's start.
    int64_t s_ns = ev.start_ns;
    if (s_ns < parent.start_ns || s_ns > parent.start_ns + parent.duration_ns) {
      s_ns = parent.start_ns;
    }
    double s_us = static_cast<double>(s_ns) / 1e3;
    double f_us = static_cast<double>(ev.start_ns) / 1e3;
    out << (any ? ",\n" : "\n") << "  {\"name\": \"causal\", \"cat\": \"sand\", \"ph\": \"s\", "
        << "\"id\": " << ev.span_id << ", \"pid\": 1, \"tid\": " << parent.tid
        << ", \"ts\": " << s_us << "},\n"
        << "  {\"name\": \"causal\", \"cat\": \"sand\", \"ph\": \"f\", \"bp\": \"e\", "
        << "\"id\": " << ev.span_id << ", \"pid\": 1, \"tid\": " << ev.tid
        << ", \"ts\": " << f_us << "}";
    any = true;
  }
  out << (any ? "\n" : "") << "]}\n";
  return out.str();
}

void Tracer::Resize(size_t slots) {
  if (slots < 1024) {
    slots = 1024;
  }
  Ring* retired = ring_.exchange(new Ring(slots), std::memory_order_acq_rel);
  head_.store(0, std::memory_order_relaxed);
  // A racing Record may still hold the old ring's pointer, so it is kept,
  // not freed; rings are swapped O(1) times per process.
  std::lock_guard<std::mutex> lock(retired_mutex_);
  retired_.emplace_back(retired);
}

void Tracer::Clear() {
  Ring* ring = ring_.load(std::memory_order_acquire);
  for (Slot& slot : ring->slots) {
    slot.name.store(nullptr, std::memory_order_relaxed);
  }
  head_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace sand
