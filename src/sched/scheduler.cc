#include "src/sched/scheduler.h"

#include <algorithm>
#include <cassert>

#include "src/common/threading.h"
#include "src/obs/attribution.h"
#include "src/obs/trace.h"

namespace sand {

namespace {

// Memory pressure at and above which background pops switch from
// earliest-deadline-first to shortest-job-first (the paper's ~80%).
constexpr double kSjfWatermark = 0.8;

}  // namespace

MaterializationScheduler::MaterializationScheduler(Options options)
    : options_(std::move(options)),
      queue_depth_(obs::Registry::Get().GetGauge("sand.sched.queue_depth")),
      job_latency_ns_(obs::Registry::Get().GetHistogram("sand.sched.job_latency_ns")) {
  if (options_.num_threads < 1) {
    options_.num_threads = 1;
  }
  workers_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MaterializationScheduler::~MaterializationScheduler() { Shutdown(); }

bool MaterializationScheduler::Submit(MaterializationJob job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return false;
    }
    queue_.push_back(Queued{std::move(job)});
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  wake_.notify_one();
  return true;
}

bool MaterializationScheduler::RunGroup(std::vector<MaterializationJob> jobs) {
  Group group;
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) {
    return false;
  }
  if (jobs.empty()) {
    return true;  // nothing to run: wake no worker
  }
  group.unfinished = jobs.size();
  for (MaterializationJob& job : jobs) {
    queue_.push_back(Queued{std::move(job), &group});
  }
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  wake_.notify_all();
  while (group.unfinished > 0) {
    auto mine = std::find_if(queue_.begin(), queue_.end(), [&](const Queued& queued) {
      return queued.group == &group && queued.job.demand_feeding &&
             !options_.disable_priorities && !TenantCappedLocked(queued.job);
    });
    if (mine == queue_.end()) {
      // The rest is running on workers, or left to them.
      group.done.wait(lock);
      continue;
    }
    Queued queued = StartLocked(mine);
    caller_runs_.Add(1);
    lock.unlock();
    RunJob(queued.job);
    lock.lock();
    FinishLocked(queued);
    // As after a worker's job: may unblock a worker parked on a capped
    // tenant, or a WaitIdle caller.
    wake_.notify_all();
    idle_.notify_all();
  }
  return true;
}

bool MaterializationScheduler::TenantCappedLocked(const MaterializationJob& job) {
  auto cap = tenant_caps_.find(job.ctx.tenant_id);
  if (cap == tenant_caps_.end()) {
    return false;
  }
  auto running = tenant_running_.find(job.ctx.tenant_id);
  return running != tenant_running_.end() && running->second >= cap->second;
}

bool MaterializationScheduler::HasRunnableLocked() {
  if (tenant_caps_.empty()) {
    return !queue_.empty();
  }
  for (const Queued& queued : queue_) {
    if (!TenantCappedLocked(queued.job)) {
      return true;
    }
  }
  return false;
}

MaterializationScheduler::Queued MaterializationScheduler::PopLocked() {
  assert(!queue_.empty());
  ++pop_seq_;
  // A pop that had to pass over a quota-capped tenant's work is the signal
  // quota enforcement is active (tests and the /.sand/tenants views read it).
  if (!tenant_caps_.empty()) {
    for (const Queued& queued : queue_) {
      if (TenantCappedLocked(queued.job)) {
        capped_skips_.Add(1);
        break;
      }
    }
  }
  auto runnable = [this](const Queued& queued) { return !TenantCappedLocked(queued.job); };
  // The least-recently-served runnable tenant in `served` wins; queue
  // order breaks ties, so single-tenant workloads reduce to the legacy
  // policy exactly.
  auto pick_tenant = [&](bool demand_class, const std::map<uint32_t, uint64_t>& served,
                         bool* found) -> uint32_t {
    uint32_t best_tenant = 0;
    uint64_t best_seq = 0;
    *found = false;
    for (const Queued& queued : queue_) {
      const MaterializationJob& job = queued.job;
      if (job.demand_feeding != demand_class || !runnable(queued)) {
        continue;
      }
      auto it = served.find(job.ctx.tenant_id);
      uint64_t seq = it == served.end() ? 0 : it->second;
      if (!*found || seq < best_seq) {
        *found = true;
        best_tenant = job.ctx.tenant_id;
        best_seq = seq;
      }
    }
    return best_tenant;
  };

  auto best = queue_.end();
  if (options_.disable_priorities) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (runnable(*it)) {
        best = it;
        break;
      }
    }
  } else {
    // Demand-feeding first: rotate across tenants with queued demand work,
    // FIFO within the chosen tenant.
    bool have_demand = false;
    uint32_t demand_tenant = pick_tenant(/*demand_class=*/true, demand_last_served_, &have_demand);
    if (have_demand) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->job.demand_feeding && it->job.ctx.tenant_id == demand_tenant) {
          best = it;
          break;
        }
      }
      demand_last_served_[demand_tenant] = pop_seq_;
    } else {
      bool have_background = false;
      uint32_t tenant =
          pick_tenant(/*demand_class=*/false, background_last_served_, &have_background);
      assert(have_background && "PopLocked without a runnable job");
      background_last_served_[tenant] = pop_seq_;
      double pressure = options_.memory_pressure ? options_.memory_pressure() : 0.0;
      bool use_sjf = pressure >= kSjfWatermark;
      auto better = [use_sjf](const Queued& a, const Queued& b) {
        return use_sjf ? a.job.remaining_work < b.job.remaining_work
                       : a.job.deadline < b.job.deadline;
      };
      // The chosen tenant's best background job under the current policy.
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->job.demand_feeding || it->job.ctx.tenant_id != tenant || !runnable(*it)) {
          continue;
        }
        if (best == queue_.end() || better(*it, *best)) {
          best = it;
        }
      }
      if (use_sjf) {
        sjf_pops_.Add(1);
      } else {
        deadline_pops_.Add(1);
      }
    }
  }
  assert(best != queue_.end() && "PopLocked without a runnable job");
  return StartLocked(best);
}

MaterializationScheduler::Queued MaterializationScheduler::StartLocked(
    std::list<Queued>::iterator it) {
  Queued queued = std::move(*it);
  queue_.erase(it);
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  const MaterializationJob& job = queued.job;
  ++tenant_running_[job.ctx.tenant_id];
  ++active_;
  jobs_run_.Add(1);
  ++jobs_run_by_tenant_[job.ctx.tenant_id];
  if (job.demand_feeding) {
    demand_jobs_run_.Add(1);
  }
  return queued;
}

void MaterializationScheduler::RunJob(MaterializationJob& job) {
  if (obs::TenantMetrics* tenant = obs::TenantMetricsFor(job.ctx.tenant_id)) {
    tenant->sched_jobs_run->Add(1);
  }
  ScopedTraceContext trace_scope(job.ctx);
  SAND_SPAN("sched_job");
  Nanos start = SinceProcessStart();
  job.run();
  job_latency_ns_->Record(static_cast<uint64_t>(SinceProcessStart() - start));
}

void MaterializationScheduler::FinishLocked(const Queued& queued) {
  --active_;
  auto running = tenant_running_.find(queued.job.ctx.tenant_id);
  if (running != tenant_running_.end() && --running->second <= 0) {
    tenant_running_.erase(running);
  }
  if (queued.group != nullptr && --queued.group->unfinished == 0) {
    // Under mutex_: the group is gone as soon as its caller sees zero.
    queued.group->done.notify_one();
  }
}

void MaterializationScheduler::SetTenantRunningCap(uint32_t tenant_id, int max_running) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (max_running <= 0) {
      tenant_caps_.erase(tenant_id);
    } else {
      tenant_caps_[tenant_id] = std::max(1, max_running);
    }
  }
  wake_.notify_all();
}

void MaterializationScheduler::WorkerLoop() {
  while (true) {
    Queued queued;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // A queue holding only quota-capped tenants' jobs is not runnable
      // yet: sleep until one of their running jobs finishes (completion
      // notifies wake_) rather than overrun the cap. Caps are >= 1, so a
      // capped tenant always has something running to wake us.
      wake_.wait(lock, [this] { return shutdown_ ? queue_.empty() || HasRunnableLocked()
                                                 : HasRunnableLocked(); });
      if (queue_.empty()) {
        return;  // shutdown with nothing left
      }
      queued = PopLocked();
    }
    RunJob(queued.job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      FinishLocked(queued);
    }
    // Completion may unblock a worker parked on a capped tenant as well as
    // a WaitIdle caller.
    wake_.notify_all();
    idle_.notify_all();
  }
}

void MaterializationScheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void MaterializationScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
}

SchedulerStats MaterializationScheduler::stats() {
  // Every count is bumped under mutex_, so reading under it gives one
  // consistent snapshot (jobs_run equals the per-tenant sum).
  std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats stats;
  stats.jobs_run = jobs_run_.Value();
  stats.demand_jobs_run = demand_jobs_run_.Value();
  stats.deadline_pops = deadline_pops_.Value();
  stats.sjf_pops = sjf_pops_.Value();
  stats.capped_skips = capped_skips_.Value();
  stats.caller_runs = caller_runs_.Value();
  stats.jobs_run_by_tenant = jobs_run_by_tenant_;
  return stats;
}

size_t MaterializationScheduler::PendingCount() {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace sand
