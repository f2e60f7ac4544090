#include "src/core/sand_service.h"

#include <algorithm>
#include <set>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/common/trace_context.h"
#include "src/core/batch_format.h"
#include "src/obs/attribution.h"
#include "src/obs/health.h"
#include "src/obs/history.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sand {

namespace {

// Queued GOP-decode slices the shared decode pool admits before a
// submitter runs its slice inline.
constexpr size_t kDecodeQueueDepth = 64;
// Share of the storage budget at which eviction starts and within which
// pruning plans (the paper's 0.75).
constexpr double kEvictWatermark = 0.75;

// The service's process-wide histogram and derived gauges (its counters are
// InstanceCounters on the service itself).
struct ServiceMetrics {
  obs::Histogram* batch_assemble_ns;
  // Derived gauges refreshed by PublishObservability (the health monitor's
  // pool-saturation inputs and the history recorder's utilization columns).
  obs::Gauge* pool_async_pending;
  obs::Gauge* pool_async_capacity;
  obs::Gauge* pool_decode_pending;
  obs::Gauge* pool_decode_capacity;
  static ServiceMetrics& Get() {
    static ServiceMetrics m{
        obs::Registry::Get().GetHistogram("sand.service.batch_assemble_ns"),
        obs::Registry::Get().GetGauge("sand.pool.async.pending"),
        obs::Registry::Get().GetGauge("sand.pool.async.capacity"),
        obs::Registry::Get().GetGauge("sand.pool.decode.pending"),
        obs::Registry::Get().GetGauge("sand.pool.decode.capacity"),
    };
    return m;
  }
};

}  // namespace

SandService::SandService(std::shared_ptr<ObjectStore> dataset_store, DatasetMeta meta,
                         std::shared_ptr<TieredCache> cache, std::vector<TaskConfig> tasks,
                         ServiceOptions options)
    : meta_(std::move(meta)),
      options_(options),
      tasks_(std::move(tasks)),
      dataset_store_(std::move(dataset_store)),
      cache_(std::move(cache)),
      containers_(dataset_store_, options.container_cache_entries),
      fs_(this) {
  MaterializationScheduler::Options sched_options;
  sched_options.num_threads = options_.num_threads;
  sched_options.disable_priorities = !options_.enable_scheduling;
  sched_options.memory_pressure = [this] { return MemoryPressure(); };
  scheduler_ = std::make_unique<MaterializationScheduler>(std::move(sched_options));
  WorkerPool::Options pool_options;
  pool_options.num_threads = std::max(1, options_.async_threads);
  pool_options.max_queued = options_.async_queue_depth;
  async_pool_ = std::make_unique<WorkerPool>(pool_options);
  if (options_.decode_threads > 0) {
    // One shared GOP-decode pool for every executor (demand and pre-mat):
    // parallelism inside a view never multiplies across concurrent views
    // beyond this bound.
    WorkerPool::Options decode_options;
    decode_options.num_threads = options_.decode_threads;
    decode_options.max_queued = kDecodeQueueDepth;
    decode_pool_ = std::make_unique<WorkerPool>(decode_options);
  }
  task_progress_.assign(tasks_.size(), 0);
  task_active_.assign(tasks_.size(), true);
  // The cache outlives this service (callers own it), so Shutdown() detaches
  // the pool again before it is destroyed; the codec itself stays installed
  // and keeps decoding (and encoding inline) after we are gone.
  cache_->SetCompression(options_.compression, async_pool_.get());

  // Observability wiring (DESIGN.md §12): health budgets and the periodic
  // history sampler (which also refreshes our gauges and evaluates health
  // each tick).
  obs::HealthMonitor::Get().SetThresholds(options_.health);
  history_sampler_ = obs::HistoryRecorder::Get().AddSampler([this] {
    PublishObservability();
    obs::HealthMonitor::Get().Evaluate();
  });
  if (options_.history_sample_ms > 0) {
    obs::HistoryRecorder::Options history_options;
    history_options.interval_ms = options_.history_sample_ms;
    obs::HistoryRecorder::Get().Start(history_options);
    started_history_ = true;
  }
}

void SandService::PublishObservability() {
  ServiceMetrics& m = ServiceMetrics::Get();
  m.pool_async_pending->Set(static_cast<int64_t>(async_pool_->Pending()));
  m.pool_async_capacity->Set(static_cast<int64_t>(options_.async_queue_depth));
  if (decode_pool_ != nullptr) {
    m.pool_decode_pending->Set(static_cast<int64_t>(decode_pool_->Pending()));
    m.pool_decode_capacity->Set(static_cast<int64_t>(kDecodeQueueDepth));
  }
}

SandService::~SandService() { Shutdown(); }

Status SandService::Start() {
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    if (started_) {
      return FailedPrecondition("service already started");
    }
    started_ = true;
  }
  SAND_ASSIGN_OR_RETURN(auto chunk, EnsureChunk(0));
  (void)chunk;
  return Status::Ok();
}

void SandService::Shutdown() {
  // The history sampler reads the pools and cache; detach it (blocking
  // until any in-flight tick finishes) before they are torn down.
  if (history_sampler_ != 0) {
    obs::HistoryRecorder::Get().RemoveSampler(history_sampler_);
    history_sampler_ = 0;
  }
  if (started_history_) {
    obs::HistoryRecorder::Get().Stop();
    started_history_ = false;
  }
  // The pool drains first: its units submit to (and block on) scheduler
  // jobs, so the scheduler must still be accepting work while they finish.
  // The decode pool goes last: executors on both of the other pools fan
  // GOP slices into it until they drain. Pending async demotions drain with
  // the pool; the cache must stop submitting to it before it dies.
  cache_->SetCompressionPool(nullptr);
  async_pool_->Shutdown();
  scheduler_->Shutdown();
  if (decode_pool_ != nullptr) {
    decode_pool_->Shutdown();
  }
}

Result<int> SandService::TaskIndex(const std::string& tag) const {
  for (size_t t = 0; t < tasks_.size(); ++t) {
    if (tasks_[t].tag == tag) {
      return static_cast<int>(t);
    }
  }
  return NotFound("no task named '" + tag + "'");
}

double SandService::MemoryPressure() {
  uint64_t capacity = cache_->MemoryCapacityBytes();
  if (capacity == 0 || capacity == UINT64_MAX) {
    return 0.0;
  }
  return static_cast<double>(cache_->MemoryUsedBytes()) / static_cast<double>(capacity);
}

Result<std::shared_ptr<SandService::ChunkState>> SandService::EnsureChunk(int64_t index) {
  std::shared_ptr<ChunkState> chunk;
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    auto it = chunks_.find(index);
    if (it != chunks_.end()) {
      return it->second;
    }
    int64_t epoch_begin = index * options_.k_epochs;
    if (epoch_begin >= options_.total_epochs) {
      return OutOfRange(StrFormat("chunk %lld beyond total epochs",
                                  static_cast<long long>(index)));
    }
    // Streaming datasets: pick up videos ingested since the last chunk.
    // Only the video list and size estimate may change; shapes are fixed
    // at construction (concurrent readers rely on the scalar fields).
    if (options_.dataset_refresh) {
      Result<DatasetMeta> refreshed = options_.dataset_refresh();
      if (refreshed.ok()) {
        meta_.video_names = refreshed->video_names;
        meta_.encoded_bytes_per_video = refreshed->encoded_bytes_per_video;
      } else {
        SAND_LOG(kWarning) << "dataset refresh failed: "
                           << refreshed.status().ToString();
      }
    }
    PlannerOptions planner;
    planner.k_epochs = static_cast<int>(
        std::min<int64_t>(options_.k_epochs, options_.total_epochs - epoch_begin));
    planner.coordinate = options_.coordinate;
    planner.seed = options_.seed;
    planner.costs = options_.costs;

    auto state = std::make_shared<ChunkState>();
    Result<MaterializationPlan> plan =
        BuildMaterializationPlan(meta_, tasks_, epoch_begin, planner);
    if (!plan.ok()) {
      return plan.status();
    }
    state->plan = plan.TakeValue();
    if (options_.enable_pruning) {
      // Plan within the eviction watermark so the pruned cache set never
      // thrashes against the evictor.
      uint64_t target = static_cast<uint64_t>(
          static_cast<double>(options_.storage_budget_bytes) * kEvictWatermark);
      state->pruning = PruneToBudget(state->plan, target);
    } else {
      state->plan.ResetCacheFlagsToLeaves();
      state->pruning.initial_bytes = state->plan.CachedBytes();
      state->pruning.final_bytes = state->pruning.initial_bytes;
      state->pruning.budget_bytes = options_.storage_budget_bytes;
      state->pruning.fits_budget =
          state->pruning.final_bytes <= options_.storage_budget_bytes;
    }
    for (size_t b = 0; b < state->plan.batches.size(); ++b) {
      const BatchPlan& batch = state->plan.batches[b];
      state->batch_index[{batch.task, batch.epoch, batch.iteration}] = b;
    }
    state->video_state.assign(state->plan.videos.size(), 0);
    last_pruning_ = state->pruning;
    chunks_[index] = state;
    chunk = state;
    fresh = true;
  }
  if (fresh) {
    // Register eviction metadata for every cacheable object of this chunk.
    {
      std::lock_guard<std::mutex> lock(evict_mutex_);
      for (const VideoObjectGraph& graph : chunk->plan.videos) {
        for (const ConcreteNode& node : graph.nodes) {
          if (!node.cache || node.op.type == ConcreteOpType::kSource) {
            continue;
          }
          EvictMeta meta;
          meta.uses.reserve(node.consumers.size());
          for (const Consumer& consumer : node.consumers) {
            meta.uses.push_back(consumer.global_iteration);
          }
          std::sort(meta.uses.begin(), meta.uses.end());
          meta.last_use = meta.uses.empty() ? 0 : meta.uses.back();
          evict_index_[NodeCacheKey(graph, node)] = std::move(meta);
        }
      }
    }
    chunks_planned_.Add(1);
    if (options_.pre_materialize) {
      SubmitPreMaterialization(chunk);
    }
    // §5.5: checkpoint the (tiny) metadata every k epochs.
    Status checkpoint_status = SaveCheckpoint();
    if (!checkpoint_status.ok()) {
      SAND_LOG(kDebug) << "checkpoint skipped: " << checkpoint_status.ToString();
    }
  }
  return chunk;
}

ServiceCheckpoint SandService::MakeCheckpoint() {
  ServiceCheckpoint checkpoint;
  checkpoint.seed = options_.seed;
  checkpoint.k_epochs = options_.k_epochs;
  checkpoint.total_epochs = options_.total_epochs;
  checkpoint.coordinate = options_.coordinate;
  checkpoint.tasks = tasks_;
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    checkpoint.task_progress = task_progress_;
  }
  // INT64_MAX (closed session) is not representable in YAML int parsing
  // round-trips meaningfully; clamp to total work.
  for (int64_t& progress : checkpoint.task_progress) {
    progress = std::min<int64_t>(progress, options_.total_epochs * 1000000);
  }
  return checkpoint;
}

Status SandService::SaveCheckpoint() {
  // Through the cache's durable-write path: retried per the DiskFaultPolicy,
  // refused (not silently diverted to memory) while the disk tier is
  // offline — a checkpoint only counts when it is actually durable.
  const std::string yaml = MakeCheckpoint().ToYaml();
  return cache_->PutDisk(
      ServiceCheckpoint::kDefaultKey,
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(yaml.data()), yaml.size()));
}

bool SandService::ClaimVideo(ChunkState& chunk, int video, bool wait_if_running) {
  std::unique_lock<std::mutex> lock(chunk.video_mutex);
  int& state = chunk.video_state[static_cast<size_t>(video)];
  while (true) {
    if (state == 0) {
      state = 1;
      return true;
    }
    if (state == 2) {
      return false;
    }
    if (!wait_if_running) {
      return false;
    }
    chunk.video_cv.wait(lock);
  }
}

void SandService::FinishVideo(ChunkState& chunk, int video) {
  {
    std::lock_guard<std::mutex> lock(chunk.video_mutex);
    chunk.video_state[static_cast<size_t>(video)] = 2;
  }
  chunk.video_cv.notify_all();
}

void SandService::SubmitPreMaterialization(const std::shared_ptr<ChunkState>& chunk) {
  bool submitted = false;
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    if (chunk->jobs_submitted) {
      submitted = true;
    }
    chunk->jobs_submitted = true;
  }
  if (submitted) {
    return;
  }
  for (size_t v = 0; v < chunk->plan.videos.size(); ++v) {
    const VideoObjectGraph& graph = chunk->plan.videos[v];
    int64_t deadline = INT64_MAX;
    int64_t flagged = 0;
    for (const ConcreteNode& node : graph.nodes) {
      if (node.cache && node.op.type != ConcreteOpType::kSource) {
        ++flagged;
        for (const Consumer& consumer : node.consumers) {
          deadline = std::min(deadline, consumer.global_iteration);
        }
      }
    }
    if (flagged == 0) {
      continue;
    }
    MaterializationJob job;
    job.deadline = deadline;
    job.remaining_work = flagged;
    job.demand_feeding = false;
    job.run = [this, chunk, v] {
      if (!ClaimVideo(*chunk, static_cast<int>(v), /*wait_if_running=*/false)) {
        return;  // a demand job already owns or finished this subtree
      }
      SubtreeExecutor executor(chunk->plan.videos[v], &containers_, cache_.get(), &cpu_meter_,
                               exec_counters_, decode_pool_.get());
      Status status = executor.MaterializeFlagged();
      FinishVideo(*chunk, static_cast<int>(v));
      if (!status.ok()) {
        SAND_LOG(kWarning) << "pre-materialization of video " << v
                           << " failed: " << status.ToString();
      }
      pre_materialize_jobs_.Add(1);
      MaybeEvict();
    };
    if (!scheduler_->Submit(std::move(job))) {
      // Shutting down: nothing will consume the rest of this chunk either.
      SAND_LOG(kInfo) << "scheduler shut down; dropped pre-materialization from video " << v;
      return;
    }
  }
}

Result<SharedBytes> SandService::Materialize(const ViewPath& path) {
  switch (path.type) {
    case ViewType::kBatchView:
      return MaterializeBatch(path);
    case ViewType::kFrame:
    case ViewType::kAugFrame:
      return MaterializeIntermediate(path);
    case ViewType::kVideo: {
      std::string key = meta_.path + "/" + path.video + ".svc";
      return containers_.Fetch(key);
    }
  }
  return InvalidArgument("unsupported view type");
}

Future<SharedBytes> SandService::MaterializeAsync(const ViewPath& path) {
  auto promise = std::make_shared<Promise<SharedBytes>>();
  Future<SharedBytes> future = promise->future();
  // TrySubmit captures the caller's trace context; the span below runs on
  // the pool thread but parents under the span submitting this unit.
  bool submitted = async_pool_->TrySubmit([this, path, promise] {
    SAND_SPAN("async_unit");
    promise->Set(Materialize(path));
  });
  if (!submitted) {
    // Demand callers block on the future anyway; compute inline. The span
    // marks the degraded mode: a trace showing "async_inline" instead of
    // "async_unit" means the pool was saturated at submission.
    SAND_SPAN("async_inline");
    return Future<SharedBytes>::FromResult(Materialize(path));
  }
  async_units_.Add(1);
  return future;
}

Result<std::vector<uint8_t>> SandService::AssembleBatch(const std::shared_ptr<ChunkState>& chunk,
                                                        const BatchPlan& batch) {
  SAND_SPAN("batch_assemble");
  Nanos assemble_start = SinceProcessStart();
  // Group the batch's clips by source video: one decoder cursor and memo
  // per video, and one parallel demand-feeding job per video group (this
  // thread runs whatever no worker has started).
  std::vector<Clip> clips(batch.clips.size());
  std::map<int, std::vector<size_t>> by_video;
  for (size_t c = 0; c < batch.clips.size(); ++c) {
    by_video[batch.clips[c].video_index].push_back(c);
  }
  std::vector<Status> statuses(by_video.size());
  std::vector<MaterializationJob> parts;
  parts.reserve(by_video.size());
  for (const auto& [video_index, clip_slots] : by_video) {
    MaterializationJob job;
    job.demand_feeding = true;
    job.deadline = batch.global_iteration;
    job.remaining_work = static_cast<int64_t>(clip_slots.size());
    job.run = [this, chunk, &batch, &clips, video_index = video_index,
               slots = clip_slots, &status = statuses[parts.size()]] {
      const VideoObjectGraph& graph = chunk->plan.videos[static_cast<size_t>(video_index)];
      SubtreeExecutor executor(graph, &containers_, cache_.get(), &cpu_meter_, exec_counters_,
                               decode_pool_.get());
      if (options_.pre_materialize && options_.enable_scheduling) {
        // Demand-feeding coordination is part of priority scheduling: never
        // duplicate the subtree's work — either claim it (and run the
        // whole pre-materialization now; this batch is the most urgent
        // consumer anyway), or wait for the owner to finish, then assemble
        // from cache. With scheduling disabled (Fig. 18 ablation) the
        // demand path recomputes naively like the baselines.
        if (ClaimVideo(*chunk, video_index, /*wait_if_running=*/true)) {
          Status materialized = executor.MaterializeFlagged();
          FinishVideo(*chunk, video_index);
          if (!materialized.ok()) {
            // The per-leaf path below retries; just surface the warning.
            SAND_LOG(kWarning) << "subtree materialization failed: "
                               << materialized.ToString();
          }
        }
      }
      // The part's flagged leaves come from the cache in one read (one
      // request per owner node when they come from cluster peers); a leaf
      // that read missed is computed without asking the cache again.
      std::vector<int> leaves;
      for (size_t slot : slots) {
        const ClipRef& ref = batch.clips[slot];
        leaves.insert(leaves.end(), ref.leaf_ids.begin(), ref.leaf_ids.end());
      }
      const std::set<int> missed = executor.LoadCached(leaves);
      for (size_t slot : slots) {
        const ClipRef& ref = batch.clips[slot];
        for (int leaf : ref.leaf_ids) {
          Result<Frame> frame = executor.Produce(leaf, /*allow_cache_store=*/true,
                                                 /*probe_cache=*/missed.count(leaf) == 0);
          if (!frame.ok()) {
            status = frame.status();
            break;
          }
          clips[slot].frames.push_back(frame.TakeValue());
          clips[slot].frame_indices.push_back(graph.node(leaf).source_frame);
        }
        if (!status.ok()) {
          break;
        }
      }
    };
    parts.push_back(std::move(job));
  }
  if (!scheduler_->RunGroup(std::move(parts))) {
    return Unavailable("service shut down before the batch was assembled");
  }
  for (Status& status : statuses) {
    SAND_RETURN_IF_ERROR(status);
  }
  Result<std::vector<uint8_t>> serialized = SerializeBatch(clips);
  ServiceMetrics::Get().batch_assemble_ns->Record(
      static_cast<uint64_t>(SinceProcessStart() - assemble_start));
  return serialized;
}

Result<SharedBytes> SandService::MaterializeBatch(const ViewPath& path) {
  SAND_ASSIGN_OR_RETURN(int task, TaskIndex(path.task));
  SAND_ASSIGN_OR_RETURN(auto chunk, EnsureChunk(ChunkOf(path.epoch)));
  auto it = chunk->batch_index.find({task, path.epoch, path.iteration});
  if (it == chunk->batch_index.end()) {
    return NotFound("no planned batch for " + path.Format());
  }
  const BatchPlan& batch = chunk->plan.batches[it->second];

  // Demand-feeding: AssembleBatch fans one job per source video into the
  // scheduler's highest class; the caller (a training loop inside read())
  // blocks until all of them land.
  Result<std::vector<uint8_t>> bytes = AssembleBatch(chunk, batch);
  if (!bytes.ok()) {
    return bytes.status();
  }

  demand_materializations_.Add(1);
  batches_served_.Add(1);
  if (obs::JobMetrics* job = obs::JobMetricsFor(obs::JobRegistry::Get().Intern(path.task))) {
    job->batches_served->Add(1);
  }
  {
    // Track training progress for deadlines and eviction.
    std::lock_guard<std::mutex> lock(progress_mutex_);
    task_progress_[static_cast<size_t>(task)] =
        std::max(task_progress_[static_cast<size_t>(task)], batch.global_iteration + 1);
  }

  // Plan the next chunk before this one expires (paper §5.2). Kicking it
  // off as soon as a chunk becomes active gives its pre-materialization the
  // whole k epochs of training time to hide under. Streaming datasets skip
  // this early planning: each chunk is planned on first demand so it sees
  // the freshest ingested videos (freshness over overlap, §5.1).
  if (!options_.dataset_refresh && path.epoch == chunk->plan.epoch_begin &&
      chunk->plan.epoch_end < options_.total_epochs) {
    int64_t next = ChunkOf(chunk->plan.epoch_end);
    bool already_planned;
    {
      std::lock_guard<std::mutex> lock(plan_mutex_);
      already_planned = chunks_.count(next) > 0;
    }
    if (!already_planned) {
      MaterializationJob plan_job;
      plan_job.demand_feeding = false;
      plan_job.deadline = batch.global_iteration;  // urgent: needed next epoch
      plan_job.remaining_work = 0;
      plan_job.run = [this, next] {
        Result<std::shared_ptr<ChunkState>> result = EnsureChunk(next);
        if (!result.ok()) {
          SAND_LOG(kWarning) << "failed to plan chunk " << next << ": "
                             << result.status().ToString();
        }
      };
      if (!scheduler_->Submit(std::move(plan_job))) {
        SAND_LOG(kInfo) << "scheduler shut down; chunk " << next << " not planned ahead";
      }
    }
  }
  MaybeEvict();
  return MakeSharedBytes(bytes.TakeValue());
}

Result<SharedBytes> SandService::MaterializeIntermediate(const ViewPath& path) {
  SAND_ASSIGN_OR_RETURN(int task, TaskIndex(path.task));
  // Intermediate views live in the currently active chunk for the task.
  int64_t progress;
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    progress = task_progress_[static_cast<size_t>(task)];
  }
  int64_t ipe = 0;
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    if (chunks_.empty()) {
      return FailedPrecondition("service not started");
    }
  }
  SAND_ASSIGN_OR_RETURN(auto chunk0, EnsureChunk(0));
  ipe = chunk0->plan.IterationsPerEpoch(task);
  int64_t epoch = std::min(progress / std::max<int64_t>(ipe, 1),
                           options_.total_epochs - 1);
  SAND_ASSIGN_OR_RETURN(auto chunk, EnsureChunk(ChunkOf(epoch)));

  const VideoObjectGraph* graph = nullptr;
  for (const VideoObjectGraph& candidate : chunk->plan.videos) {
    if (candidate.video_name == path.video) {
      graph = &candidate;
      break;
    }
  }
  if (graph == nullptr) {
    return NotFound("no such video: " + path.video);
  }
  const ConcreteNode* target = nullptr;
  for (const ConcreteNode& node : graph->nodes) {
    if (node.source_frame != path.frame_index) {
      continue;
    }
    if (path.type == ViewType::kFrame && node.op.type == ConcreteOpType::kDecode) {
      target = &node;
      break;
    }
    if (path.type == ViewType::kAugFrame && node.chain_depth == path.aug_depth &&
        node.tasks.count(task) > 0) {
      target = &node;
      break;
    }
  }
  if (target == nullptr) {
    return NotFound("no planned object for " + path.Format());
  }
  SubtreeExecutor executor(*graph, &containers_, cache_.get(), &cpu_meter_, exec_counters_,
                           decode_pool_.get());
  SAND_ASSIGN_OR_RETURN(Frame frame, executor.Produce(target->id, /*allow_cache_store=*/true));
  demand_materializations_.Add(1);
  return std::make_shared<const std::vector<uint8_t>>(frame.Serialize());
}

Result<std::string> SandService::GetMetadata(const ViewPath& path, const std::string& name) {
  if (path.type == ViewType::kBatchView) {
    SAND_ASSIGN_OR_RETURN(int task, TaskIndex(path.task));
    SAND_ASSIGN_OR_RETURN(auto chunk, EnsureChunk(ChunkOf(path.epoch)));
    auto it = chunk->batch_index.find({task, path.epoch, path.iteration});
    if (it == chunk->batch_index.end()) {
      return NotFound("no planned batch for " + path.Format());
    }
    const BatchPlan& batch = chunk->plan.batches[it->second];
    if (name == "epoch") {
      return StrFormat("%lld", static_cast<long long>(batch.epoch));
    }
    if (name == "iteration") {
      return StrFormat("%lld", static_cast<long long>(batch.iteration));
    }
    if (name == "clips") {
      return StrFormat("%zu", batch.clips.size());
    }
    if (name == "timestamps") {
      // Source frame indices per clip, the paper's frame-timestamp xattr.
      std::string out;
      for (const ClipRef& clip : batch.clips) {
        const VideoObjectGraph& graph =
            chunk->plan.videos[static_cast<size_t>(clip.video_index)];
        for (size_t i = 0; i < clip.leaf_ids.size(); ++i) {
          if (!out.empty()) {
            out += ",";
          }
          out += StrFormat("%s:%lld", graph.video_name.c_str(),
                           static_cast<long long>(graph.node(clip.leaf_ids[i]).source_frame));
        }
      }
      return out;
    }
    if (name == "shape") {
      if (batch.clips.empty() || batch.clips[0].leaf_ids.empty()) {
        return std::string("0,0,0,0,0");
      }
      const ClipRef& clip = batch.clips[0];
      const ConcreteNode& leaf =
          chunk->plan.videos[static_cast<size_t>(clip.video_index)].node(clip.leaf_ids[0]);
      return StrFormat("%zu,%zu,%d,%d,%d", batch.clips.size(), clip.leaf_ids.size(),
                       leaf.height, leaf.width, leaf.channels);
    }
    return NotFound("unknown batch xattr: " + name);
  }
  if (path.type == ViewType::kFrame || path.type == ViewType::kAugFrame) {
    if (name == "shape") {
      return StrFormat("%d,%d,%d", meta_.height, meta_.width, meta_.channels);
    }
    if (name == "frame_index") {
      return StrFormat("%lld", static_cast<long long>(path.frame_index));
    }
    return NotFound("unknown frame xattr: " + name);
  }
  if (path.type == ViewType::kVideo) {
    if (name == "frames") {
      return StrFormat("%lld", static_cast<long long>(meta_.frames_per_video));
    }
    if (name == "gop") {
      return StrFormat("%d", meta_.gop_size);
    }
    return NotFound("unknown video xattr: " + name);
  }
  return InvalidArgument("unsupported view type");
}

Status SandService::OnSessionOpen(const std::string& task) {
  SAND_ASSIGN_OR_RETURN(int index, TaskIndex(task));
  std::lock_guard<std::mutex> lock(progress_mutex_);
  task_active_[static_cast<size_t>(index)] = true;
  return Status::Ok();
}

Status SandService::OnSessionClose(const std::string& task) {
  SAND_ASSIGN_OR_RETURN(int index, TaskIndex(task));
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    task_active_[static_cast<size_t>(index)] = false;
    task_progress_[static_cast<size_t>(index)] = INT64_MAX;
  }
  MaybeEvict();
  return Status::Ok();
}

Result<std::vector<std::string>> SandService::ListChildren(const std::string& path) {
  std::vector<std::string> parts;
  for (const std::string& part : Split(std::string_view(path).substr(1), '/')) {
    if (!part.empty()) {
      parts.push_back(part);
    }
  }
  std::vector<std::string> out;
  // "/" -> task tags.
  if (parts.empty()) {
    for (const TaskConfig& task : tasks_) {
      out.push_back(task.tag);
    }
    return out;
  }
  SAND_ASSIGN_OR_RETURN(int task, TaskIndex(parts[0]));
  // "/{task}" -> epochs and videos.
  if (parts.size() == 1) {
    for (int64_t epoch = 0; epoch < options_.total_epochs; ++epoch) {
      out.push_back(StrFormat("%lld", static_cast<long long>(epoch)));
    }
    std::vector<std::string> videos;
    {
      std::lock_guard<std::mutex> lock(plan_mutex_);  // streaming growth
      videos = meta_.video_names;
    }
    for (const std::string& video : videos) {
      out.push_back(video + ".mp4");
    }
    return out;
  }
  // "/{task}/{epoch}" -> iterations; "/{task}/{video}" -> planned frames.
  if (parts.size() == 2) {
    if (auto epoch = ParseInt(parts[1]); epoch.has_value()) {
      if (*epoch < 0 || *epoch >= options_.total_epochs) {
        return NotFound("no such epoch: " + parts[1]);
      }
      SAND_ASSIGN_OR_RETURN(auto chunk, EnsureChunk(ChunkOf(*epoch)));
      int64_t ipe = chunk->plan.IterationsPerEpoch(task);
      for (int64_t iter = 0; iter < ipe; ++iter) {
        out.push_back(StrFormat("%lld", static_cast<long long>(iter)));
      }
      return out;
    }
    // Video directory: frames this task's active chunk plans for it.
    SAND_ASSIGN_OR_RETURN(auto chunk, EnsureChunk(0));
    for (const VideoObjectGraph& graph : chunk->plan.videos) {
      if (graph.video_name != parts[1]) {
        continue;
      }
      for (const ConcreteNode& node : graph.nodes) {
        if (node.op.type == ConcreteOpType::kDecode && node.tasks.count(task) > 0) {
          out.push_back(StrFormat("frame%lld", static_cast<long long>(node.op.frame_index)));
        }
      }
      return out;
    }
    return NotFound("no such video: " + parts[1]);
  }
  // "/{task}/{epoch}/{iteration}" -> the view file.
  if (parts.size() == 3) {
    out.push_back("view");
    return out;
  }
  return NotFound("nothing under: " + path);
}

int64_t SandService::GlobalProgress() {
  std::lock_guard<std::mutex> lock(progress_mutex_);
  int64_t progress = INT64_MAX;
  for (size_t t = 0; t < task_progress_.size(); ++t) {
    if (task_active_[t]) {
      progress = std::min(progress, task_progress_[t]);
    }
  }
  return progress;
}

void SandService::MaybeEvict() {
  uint64_t threshold = static_cast<uint64_t>(
      static_cast<double>(options_.storage_budget_bytes) * kEvictWatermark);
  uint64_t used = cache_->MemoryUsedBytes() + cache_->DiskUsedBytes();
  if (used <= threshold) {
    return;
  }
  int64_t progress = GlobalProgress();

  // Candidate order (paper §6): (1) already fully used objects, (2) the
  // object whose next use is farthest in the future.
  struct Candidate {
    std::string key;
    bool spent;
    int64_t next_use;
  };
  std::vector<Candidate> candidates;
  {
    std::lock_guard<std::mutex> lock(evict_mutex_);
    for (const auto& [key, meta] : evict_index_) {
      if (!cache_->Contains(key)) {
        continue;
      }
      bool spent = meta.last_use < progress;
      int64_t next_use = INT64_MAX;
      auto it = std::lower_bound(meta.uses.begin(), meta.uses.end(), progress);
      if (it != meta.uses.end()) {
        next_use = *it;
      }
      candidates.push_back(Candidate{key, spent, next_use});
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.spent != b.spent) {
      return a.spent;  // spent objects first
    }
    return a.next_use > b.next_use;  // then farthest next use
  });
  // Pass 1 (compression enabled): spill spent memory-resident candidates
  // through the codec — cheap cycles instead of lost bytes. Demotions run
  // async, so their savings are credited as estimated headroom below rather
  // than waiting for the spill to land.
  uint64_t estimated_savings = 0;
  if (cache_->compression_enabled()) {
    const double ratio = std::max(1.0, cache_->CompressionRatio());
    for (const Candidate& candidate : candidates) {
      if (!candidate.spent) {
        break;  // sorted spent-first
      }
      if (used <= threshold + estimated_savings) {
        break;
      }
      Result<uint64_t> size = cache_->memory().SizeOf(candidate.key);
      if (!size.ok()) {
        continue;  // not memory-resident; nothing to spill
      }
      if (cache_->Demote(candidate.key).ok()) {
        estimated_savings +=
            *size - static_cast<uint64_t>(static_cast<double>(*size) / ratio);
      }
    }
  }
  // Pass 2: delete until (projected) under the watermark.
  uint64_t evicted = 0;
  for (const Candidate& candidate : candidates) {
    if (cache_->MemoryUsedBytes() + cache_->DiskUsedBytes() <=
        threshold + estimated_savings) {
      break;
    }
    if (cache_->Delete(candidate.key).ok()) {
      ++evicted;
    }
  }
  if (evicted > 0) {
    evictions_.Add(evicted);
  }
}

ServiceStats SandService::stats() {
  ServiceStats snapshot;
  snapshot.exec = exec_counters_.stats();
  snapshot.batches_served = batches_served_.Value();
  snapshot.demand_materializations = demand_materializations_.Value();
  snapshot.pre_materialize_jobs = pre_materialize_jobs_.Value();
  snapshot.evictions = evictions_.Value();
  snapshot.chunks_planned = chunks_planned_.Value();
  snapshot.recovered_objects = recovered_objects_.load(std::memory_order_relaxed);
  snapshot.async_units = async_units_.Value();
  snapshot.disk_degraded = cache_->disk_degraded() ? 1 : 0;
  return snapshot;
}

PruningReport SandService::last_pruning_report() {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return last_pruning_;
}

Result<uint64_t> SandService::RecoverFromDisk() {
  SAND_RETURN_IF_ERROR(cache_->disk().Rescan());
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    started_ = true;
  }
  // Restore progress from the metadata checkpoint, when one survived.
  Result<ServiceCheckpoint> checkpoint = ServiceCheckpoint::Load(cache_->disk());
  if (checkpoint.ok() && checkpoint->task_progress.size() == tasks_.size()) {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    task_progress_ = checkpoint->task_progress;
  }
  // Rebuild the current chunk's (deterministic) plan and count survivors.
  int64_t progress = GlobalProgress();
  if (progress == INT64_MAX) {
    progress = 0;
  }
  SAND_ASSIGN_OR_RETURN(auto chunk0, EnsureChunk(0));
  int64_t ipe = chunk0->plan.IterationsPerEpoch(0);
  int64_t epoch = std::min(progress / std::max<int64_t>(ipe, 1), options_.total_epochs - 1);
  SAND_ASSIGN_OR_RETURN(auto chunk, EnsureChunk(ChunkOf(epoch)));
  uint64_t recovered = 0;
  for (const VideoObjectGraph& graph : chunk->plan.videos) {
    for (const ConcreteNode& node : graph.nodes) {
      if (node.cache && node.op.type != ConcreteOpType::kSource &&
          cache_->Contains(NodeCacheKey(graph, node))) {
        ++recovered;
      }
    }
  }
  recovered_objects_.store(recovered, std::memory_order_relaxed);
  return recovered;
}

}  // namespace sand
