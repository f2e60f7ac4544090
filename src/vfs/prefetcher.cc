#include "src/vfs/prefetcher.h"

#include <algorithm>

#include "src/common/trace_context.h"
#include "src/obs/attribution.h"
#include "src/obs/trace.h"
#include "src/vfs/sand_fs.h"

namespace sand {

namespace {
// Byte estimate for a task whose batch size is not yet known (first
// speculation fires before any batch has completed).
constexpr uint64_t kDefaultBatchEstimate = 1ULL * 1024 * 1024;
}  // namespace

Prefetcher::Prefetcher(ViewProvider* provider, PrefetchOptions options)
    : provider_(provider),
      options_(options),
      liveness_(std::make_shared<char>(0)),
      inflight_gauge_(obs::Registry::Get().GetGauge("sand.prefetch.inflight")) {}

Prefetcher::~Prefetcher() {
  // Invalidate completion callbacks before members are torn down; late
  // speculation results (or broken promises from a dying provider) land in
  // a no-op instead of freed maps.
  liveness_.reset();
}

void Prefetcher::ConfigureSession(const std::string& task, int window) {
  std::lock_guard<std::mutex> lock(mutex_);
  Session& session = sessions_[task];
  session.window = window < 0 ? options_.window : window;
}

void Prefetcher::OnSessionClose(const std::string& task) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(task);
  if (it == sessions_.end()) {
    return;
  }
  // Session entries are never erased: the bumped generation is what marks
  // this task's in-flight speculations stale (their completions count as
  // cancelled exactly once, in OnSpeculationDone).
  ++it->second.generation;
  it->second.window = 0;
  for (auto cit = completed_.begin(); cit != completed_.end();) {
    if (cit->second.task == task) {
      completed_index_.erase(cit->first);
      cit = completed_.erase(cit);
      cancelled_.Add(1);
    } else {
      ++cit;
    }
  }
}

void Prefetcher::OnBatchAccess(const ViewPath& path) {
  if (path.type != ViewType::kBatchView) {
    return;
  }
  SAND_SPAN("prefetch_plan");
  struct Issue {
    std::string key;
    ViewPath view;
    uint64_t generation;
  };
  std::vector<Issue> to_issue;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto sit = sessions_.find(path.task);
    if (sit == sessions_.end() || sit->second.window <= 0) {
      return;
    }
    Session& session = sit->second;
    int64_t epoch = path.epoch;
    int64_t iteration = path.iteration;
    for (int step = 0; step < session.window; ++step) {
      ++iteration;
      if (session.iterations_per_epoch > 0 && iteration >= session.iterations_per_epoch) {
        iteration = 0;
        ++epoch;
      }
      ViewPath next = ViewPath::Batch(path.task, epoch, iteration);
      std::string key = next.Format();
      if (inflight_.count(key) != 0 || completed_index_.count(key) != 0) {
        continue;  // already speculated
      }
      uint64_t estimate =
          session.last_batch_bytes > 0 ? session.last_batch_bytes : kDefaultBatchEstimate;
      if (inflight_.size() >= static_cast<size_t>(options_.max_inflight) ||
          FootprintLocked() + estimate > options_.budget_bytes) {
        rejected_.Add(1);
        continue;
      }
      Spec spec;
      spec.task = path.task;
      spec.generation = session.generation;
      spec.epoch = epoch;
      spec.iteration = iteration;
      spec.estimate = estimate;
      inflight_.emplace(key, std::move(spec));
      to_issue.push_back(Issue{std::move(key), next, session.generation});
    }
    inflight_gauge_->Set(static_cast<int64_t>(inflight_.size()));
  }
  // Provider calls happen outside the lock: the default synchronous adapter
  // resolves inline, which would re-enter OnSpeculationDone while we hold
  // mutex_. The inflight entry is already reserved, so concurrent demand
  // accesses cannot double-issue the same view.
  obs::JobMetrics* job = obs::JobMetricsFor(obs::JobRegistry::Get().Intern(path.task));
  for (Issue& issue : to_issue) {
    // Each speculative unit is its own trace root (kSpeculative class,
    // still attributed to the task): readahead work must be separable
    // from — not interleaved into — the demand flame that triggered it.
    TraceContext spec_ctx;
    spec_ctx.trace_id = NextTraceId();
    spec_ctx.job_id = obs::JobRegistry::Get().Intern(issue.view.task);
    spec_ctx.request_class = RequestClass::kSpeculative;
    ScopedTraceContext trace_scope(spec_ctx);
    SAND_SPAN("prefetch_issue");
    if (job != nullptr) {
      job->speculative_issued->Add(1);
    }
    Future<SharedBytes> future = provider_->MaterializeAsync(issue.view, /*speculative=*/true);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      issued_.Add(1);
      auto it = inflight_.find(issue.key);
      if (it != inflight_.end()) {
        it->second.future = future;
      }
    }
    future.OnReady([this, alive = std::weak_ptr<char>(liveness_), key = issue.key,
                    task = issue.view.task,
                    generation = issue.generation](const Result<SharedBytes>& result) {
      if (auto live = alive.lock()) {
        OnSpeculationDone(key, task, generation, result);
      }
    });
  }
}

void Prefetcher::OnSpeculationDone(const std::string& key, const std::string& task,
                                   uint64_t generation, const Result<SharedBytes>& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  bool consumed = false;
  int64_t iteration = -1;
  auto it = inflight_.find(key);
  if (it != inflight_.end()) {
    consumed = it->second.consumed;
    iteration = it->second.iteration;
    inflight_.erase(it);
  }
  inflight_gauge_->Set(static_cast<int64_t>(inflight_.size()));
  auto sit = sessions_.find(task);
  if (sit == sessions_.end() || sit->second.generation != generation) {
    cancelled_.Add(1);
    return;
  }
  Session& session = sit->second;
  if (!result.ok()) {
    // Running off the end of an epoch fails NotFound at the first missing
    // iteration — which IS the epoch length. Later predictions wrap.
    if (result.status().code() == ErrorCode::kNotFound && iteration > 0) {
      session.iterations_per_epoch = iteration;
    }
    wasted_.Add(1);
    if (obs::JobMetrics* job = obs::JobMetricsFor(obs::JobRegistry::Get().Intern(task))) {
      job->speculative_wasted->Add(1);
    }
    return;
  }
  session.last_batch_bytes = (*result.value()).size();
  if (consumed) {
    return;  // a demand reader already holds the future (hit counted in Take)
  }
  Done done;
  done.task = task;
  done.generation = generation;
  done.data = result.value();
  completed_.push_back({key, std::move(done)});
  completed_index_[key] = std::prev(completed_.end());
  EvictCompletedLocked();
}

std::optional<Future<SharedBytes>> Prefetcher::Take(const ViewPath& path) {
  if (path.type != ViewType::kBatchView) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key = path.Format();
  auto cit = completed_index_.find(key);
  if (cit != completed_index_.end()) {
    SharedBytes data = cit->second->second.data;
    if (!cit->second->second.pinned) {
      completed_.erase(cit->second);
      completed_index_.erase(cit);
    }
    hits_.Add(1);
    return Future<SharedBytes>::FromResult(Result<SharedBytes>(std::move(data)));
  }
  auto iit = inflight_.find(key);
  if (iit != inflight_.end() && iit->second.future.valid() && !iit->second.consumed) {
    // Pipelined hit: attach the demand reader to the running speculation.
    // (A reserved-but-not-yet-issued entry has an invalid future and falls
    // through to the miss path; the cache below the provider dedupes.)
    iit->second.consumed = true;
    hits_inflight_.Add(1);
    return iit->second.future;
  }
  auto sit = sessions_.find(path.task);
  if (sit != sessions_.end() && sit->second.window > 0) {
    misses_.Add(1);
  }
  return std::nullopt;
}

void Prefetcher::PinResult(const ViewPath& path, SharedBytes data) {
  if (path.type != ViewType::kBatchView || data == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key = path.Format();
  auto cit = completed_index_.find(key);
  if (cit != completed_index_.end()) {
    cit->second->second.pinned = true;
    return;
  }
  Done done;
  done.task = path.task;
  auto sit = sessions_.find(path.task);
  done.generation = sit != sessions_.end() ? sit->second.generation : 0;
  done.data = std::move(data);
  done.pinned = true;
  completed_.push_back({std::move(key), std::move(done)});
  completed_index_[completed_.back().first] = std::prev(completed_.end());
}

PrefetchStats Prefetcher::stats() {
  PrefetchStats stats;
  stats.issued = issued_.Value();
  stats.hits = hits_.Value();
  stats.hits_inflight = hits_inflight_.Value();
  stats.misses = misses_.Value();
  stats.wasted = wasted_.Value();
  stats.cancelled = cancelled_.Value();
  stats.rejected = rejected_.Value();
  return stats;
}

size_t Prefetcher::InFlight() {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_.size();
}

uint64_t Prefetcher::FootprintLocked() const {
  uint64_t total = 0;
  for (const auto& [key, spec] : inflight_) {
    total += spec.estimate;
  }
  for (const auto& [key, done] : completed_) {
    if (done.data != nullptr) {
      total += done.data->size();
    }
  }
  return total;
}

void Prefetcher::EvictCompletedLocked() {
  while (completed_.size() > options_.completed_capacity) {
    auto victim = completed_.end();
    for (auto it = completed_.begin(); it != completed_.end(); ++it) {
      if (!it->second.pinned) {
        victim = it;
        break;
      }
    }
    if (victim == completed_.end()) {
      return;  // everything pinned; capacity pressure yields to pins
    }
    std::string victim_task = victim->second.task;
    completed_index_.erase(victim->first);
    completed_.erase(victim);
    wasted_.Add(1);
    if (obs::JobMetrics* job =
            obs::JobMetricsFor(obs::JobRegistry::Get().Intern(victim_task))) {
      job->speculative_wasted->Add(1);
    }
  }
}

}  // namespace sand
