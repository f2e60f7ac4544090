// Priority-based materialization scheduling (paper §5.4).
//
// Two worker classes share one CPU thread pool:
//   demand-feeding      - prepares the batch the GPU needs *now*; always
//                         wins over background work
//   pre-materialization - produces objects for upcoming iterations/epochs
//                         (and plans the next chunk)
//
// Background jobs are ordered earliest-deadline-first, where a job's
// deadline is the global iteration at which its object is consumed. When
// memory pressure crosses a watermark the policy flips to shortest-job-
// first (fewest unprocessed edges), draining almost-done subtrees so their
// decoded frames can be freed (paper: SJF above ~80% memory use).
//
// A demand read hands the parts of its batch that the cache could not
// answer to RunGroup, which does not leave the reading thread idle: every
// demand-feeding job of the group that no worker has started yet runs on
// that thread. Workers may all be inside long
// background jobs when a batch arrives; demand work then starts at once
// instead of waiting for one of them to finish.
//
// Multi-tenant fair-share (DESIGN.md §13): jobs carry the submitting
// tenant in their TraceContext. Within each class, pops rotate across
// tenants that have queued work (least-recently-served tenant first, job
// order within the tenant unchanged), so one tenant flooding the queue
// cannot starve another's demand class. A tenant may additionally be
// capped to N concurrently running jobs (SetTenantRunningCap); a capped
// tenant's jobs are skipped while it is at its limit — workers sleep
// rather than overrun a quota, and wake when a job finishes.

#ifndef SAND_SCHED_SCHEDULER_H_
#define SAND_SCHED_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/trace_context.h"
#include "src/obs/metrics.h"

namespace sand {

struct MaterializationJob {
  // Smaller = needed sooner. Deadlines are global iteration numbers.
  int64_t deadline = 0;
  // Unprocessed edges left in this job's subtree; the SJF key.
  int64_t remaining_work = 0;
  // Demand-feeding jobs preempt (in queue order) all background work.
  bool demand_feeding = false;
  std::function<void()> run;
  // Captured at construction on the submitting thread; the worker restores
  // it around run() so the job's spans join the submitter's trace.
  TraceContext ctx = CurrentTraceContext();
};

struct SchedulerStats {
  uint64_t jobs_run = 0;
  uint64_t demand_jobs_run = 0;
  uint64_t deadline_pops = 0;    // background pops under the EDF policy
  uint64_t sjf_pops = 0;         // background pops under the SJF policy
  uint64_t capped_skips = 0;     // pops that bypassed a tenant at its running cap
  uint64_t caller_runs = 0;      // RunGroup jobs run on the calling thread
  // Jobs completed per tenant id (0 = untenanted in-process work).
  std::map<uint32_t, uint64_t> jobs_run_by_tenant;
};

class MaterializationScheduler {
 public:
  struct Options {
    int num_threads = 4;
    // Current memory pressure in [0, 1]; polled at each pop. Defaults to
    // "no pressure". Background pops use SJF at 0.8 and above.
    std::function<double()> memory_pressure;
    // Disables prioritization entirely (FIFO pops) — the Fig. 18 ablation.
    bool disable_priorities = false;
  };

  explicit MaterializationScheduler(Options options);
  ~MaterializationScheduler();

  MaterializationScheduler(const MaterializationScheduler&) = delete;
  MaterializationScheduler& operator=(const MaterializationScheduler&) = delete;

  // Queues `job` and returns true. Once Shutdown() has begun it returns
  // false instead and the job never runs: the workers may already have
  // exited, so a late job would sit in the queue forever. Jobs queued
  // before Shutdown() still drain.
  bool Submit(MaterializationJob job);

  // Queues `jobs` as one group and returns once every one of them has run.
  // Meanwhile the calling thread runs each demand-feeding job of the group
  // that no worker has popped yet, so the group never waits for a worker to
  // finish a background job. It leaves to the workers a job whose tenant is
  // at its running cap, and everything under disable_priorities (the FIFO
  // ablation). Returns false, queueing none of them, once Shutdown() has
  // begun. An empty group wakes no worker: it returns true at once, or
  // false after Shutdown(), so a caller with nothing to queue still learns
  // that the scheduler has stopped.
  bool RunGroup(std::vector<MaterializationJob> jobs);

  // Caps how many of `tenant_id`'s jobs may run concurrently (its
  // scheduler quota). Clamped to >= 1 so a capped tenant always makes
  // progress; 0 removes the cap. Takes effect at the next pop.
  void SetTenantRunningCap(uint32_t tenant_id, int max_running);

  // Blocks until the queue is empty and all workers are idle.
  void WaitIdle();

  // Stops accepting work (Submit returns false from here on) and joins the
  // workers after they complete every job already queued.
  void Shutdown();

  SchedulerStats stats();
  size_t PendingCount();

 private:
  // The RunGroup call a queued job belongs to; it lives on that call's
  // stack and is guarded by mutex_.
  struct Group {
    size_t unfinished = 0;
    std::condition_variable done;
  };
  struct Queued {
    MaterializationJob job;
    Group* group = nullptr;  // null for Submit
  };

  void WorkerLoop();
  // Extracts the next job per the current policy. Caller holds mutex_ and
  // has verified HasRunnableLocked().
  Queued PopLocked();
  // Removes `it` from the queue and counts it as running. Caller holds
  // mutex_.
  Queued StartLocked(std::list<Queued>::iterator it);
  // Runs a started job under its trace context. Caller does not hold mutex_.
  void RunJob(MaterializationJob& job);
  // Counts a started job as done and wakes its group's caller. Caller holds
  // mutex_.
  void FinishLocked(const Queued& queued);
  // True when some queued job belongs to a tenant under its running cap.
  bool HasRunnableLocked();
  // True when `job`'s tenant is at its running cap right now.
  bool TenantCappedLocked(const MaterializationJob& job);

  Options options_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::list<Queued> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool shutdown_ = false;
  // Tenant rotation state: the pop sequence at which each tenant was last
  // served, per class group (demand vs background). Least-recently-served
  // tenant wins the next pop of that group.
  uint64_t pop_seq_ = 0;
  std::map<uint32_t, uint64_t> demand_last_served_;
  std::map<uint32_t, uint64_t> background_last_served_;
  // Per-tenant running-job counts and caps (0 entries are erased).
  std::map<uint32_t, int> tenant_running_;
  std::map<uint32_t, int> tenant_caps_;
  std::map<uint32_t, uint64_t> jobs_run_by_tenant_;

  // Read by stats() ("sand.sched.<field>" in /.sand/metrics), plus the live
  // queue depth.
  obs::InstanceCounter jobs_run_{"sand.sched.jobs_run"};
  obs::InstanceCounter demand_jobs_run_{"sand.sched.demand_jobs_run"};
  obs::InstanceCounter deadline_pops_{"sand.sched.deadline_pops"};
  obs::InstanceCounter sjf_pops_{"sand.sched.sjf_pops"};
  obs::InstanceCounter capped_skips_{"sand.sched.capped_skips"};
  obs::InstanceCounter caller_runs_{"sand.sched.caller_runs"};
  obs::Gauge* queue_depth_;
  obs::Histogram* job_latency_ns_;
};

}  // namespace sand

#endif  // SAND_SCHED_SCHEDULER_H_
