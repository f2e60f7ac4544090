// Per-job metric attribution (DESIGN.md §12).
//
// SAND serves many training jobs from one cache; "who caused this work"
// is the question both the scheduler and an operator debugging a slow
// epoch need answered. A job here is whatever tag the front-end hands us
// — today the task name from the view path (SandFs interns it at Open),
// tomorrow a tenant id from the socket server.
//
// JobRegistry interns tags to dense uint32 ids (0 = unattributed) that
// travel inside TraceContext.job_id; JobMetricsFor(id) returns a bundle
// of cached metric pointers named "sand.job.<tag>.<metric>" in the global
// registry, so per-job counters ride the same sharded lock-free
// primitives, appear in /.sand/metrics, and are carved out per job as
// "/.sand/jobs/<tag>/metrics" by SandFs.

#ifndef SAND_OBS_ATTRIBUTION_H_
#define SAND_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace sand {
namespace obs {

class Counter;
class Gauge;
class Histogram;

// The per-job metric bundle. Pointers are registry-owned and live for the
// process; callers cache the bundle pointer itself (stable after Intern).
struct JobMetrics {
  Counter* reads = nullptr;           // demand view reads served
  Counter* bytes_read = nullptr;      // bytes handed to the reader
  Counter* batches_served = nullptr;  // batch manifests completed
  Counter* cache_hits = nullptr;      // executor cache short-circuits
  Counter* decode_ns = nullptr;       // decode CPU attributed to the job
  Histogram* materialize_wait_ns = nullptr;  // reader-observed wait per read
};

// The per-tenant metric bundle ("sand.tenant.<tag>.<metric>"). A tenant is
// a paying consumer of the shared service — one socket identity with
// quotas — where a job is one training task; a tenant typically runs many
// jobs. Carved out per tenant as "/.sand/tenants/<tag>/metrics" by SandFs.
struct TenantMetrics {
  Counter* sessions = nullptr;        // connections that authenticated as this tenant
  Counter* requests = nullptr;        // wire requests served
  Counter* rejected = nullptr;        // admission-control refusals (RESOURCE_EXHAUSTED)
  Counter* bytes_read = nullptr;      // payload bytes shipped to the tenant
  Counter* sched_jobs_run = nullptr;  // scheduler jobs attributed to the tenant
  Gauge* inflight = nullptr;          // requests currently executing
  Gauge* resident_bytes = nullptr;    // open-object bytes counted against its budget
  Histogram* materialize_wait_ns = nullptr;  // per-request service time
};

// Tag <-> dense id intern table, one per bundle type: JobRegistry interns
// job tags ("sand.job.<tag>.<metric>"), TenantRegistry tenant tags
// ("sand.tenant.<tag>.<metric>"). Process-global, grow-only; lookups on the
// read path are one mutex acquisition at Open time, never per byte.
template <typename Metrics>
class TagRegistry {
 public:
  static TagRegistry& Get();

  // Returns the id for `tag`, creating it (and its metric bundle) on first
  // use. Empty tags map to 0 (unattributed).
  uint32_t Intern(const std::string& tag);

  // Tag for `id`; "-" for 0/unknown (chrome://tracing arg rendering).
  std::string NameOf(uint32_t id);

  // Metric bundle for `id`; nullptr for 0/unknown.
  Metrics* MetricsFor(uint32_t id);

  // All interned tags, sorted (directory listing for /.sand/jobs and
  // /.sand/tenants).
  std::vector<std::string> Tags();

 private:
  TagRegistry() = default;

  std::mutex mutex_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> tags_;                 // index = id - 1
  std::vector<std::unique_ptr<Metrics>> metrics_;  // index = id - 1
};

using JobRegistry = TagRegistry<JobMetrics>;
using TenantRegistry = TagRegistry<TenantMetrics>;
extern template class TagRegistry<JobMetrics>;
extern template class TagRegistry<TenantMetrics>;

// Convenience: bundle for the id, nullptr when unattributed.
inline JobMetrics* JobMetricsFor(uint32_t job_id) {
  return JobRegistry::Get().MetricsFor(job_id);
}

// Convenience: bundle for the id, nullptr when no tenant.
inline TenantMetrics* TenantMetricsFor(uint32_t tenant_id) {
  return TenantRegistry::Get().MetricsFor(tenant_id);
}

}  // namespace obs
}  // namespace sand

#endif  // SAND_OBS_ATTRIBUTION_H_
