// SandService: the SAND core.
//
// Ties together every mechanism in the paper:
//   - plans k-epoch chunks of the concrete object graph for all tasks
//     (src/graph), generating the next chunk before the current one expires
//   - prunes each chunk's cache set to the storage budget (src/pruning)
//   - executes pre-materialization as background subtree jobs and serves
//     demand-feeding batch reads with priority over them (src/sched)
//   - persists cached objects in a tiered memory/disk cache with the
//     paper's eviction order: used-and-not-needed first, then the object
//     whose next use is farthest away, once usage crosses the watermark
//   - exposes everything through the POSIX view surface (src/vfs) as the
//     registered ViewProvider
//   - recovers after a crash by rescanning the cache store and rebuilding
//     the (deterministic) plan, skipping work whose outputs survived

#ifndef SAND_CORE_SAND_SERVICE_H_
#define SAND_CORE_SAND_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/worker_pool.h"
#include "src/core/checkpoint.h"
#include "src/core/container_cache.h"
#include "src/core/executor.h"
#include "src/graph/concrete_graph.h"
#include "src/graph/dataset_meta.h"
#include "src/obs/metrics.h"
#include "src/pruning/graph_pruning.h"
#include "src/sched/scheduler.h"
#include "src/sim/cpu_meter.h"
#include "src/storage/object_store.h"
#include "src/vfs/sand_fs.h"

namespace sand {

struct ServiceOptions {
  // Planning.
  int k_epochs = 4;
  int64_t total_epochs = 8;
  bool coordinate = true;  // shared pool / window / choices
  uint64_t seed = 42;
  CostModel costs;

  // Materialization & scheduling.
  int num_threads = 4;
  bool enable_scheduling = true;   // false: FIFO pops (Fig. 18 ablation)
  bool pre_materialize = true;     // false: pure demand pipeline

  // Threads of the async pool. Its only work is the compressed tier's
  // async demote encodes (DESIGN.md §11); reads materialize on the thread
  // that reads (§8).
  int async_threads = 2;

  // Intra-view GOP-parallel decode (DESIGN.md §9): one process-wide pool
  // shared by demand and pre-materialization executors, so concurrent
  // materialization units contend for a bounded set of decode threads
  // instead of each spawning their own (no oversubscription). 0 creates no
  // pool: each executor runs its GOP slices on its own thread.
  int decode_threads = 4;

  // Streaming input (§5.1, input_source: streaming): invoked before
  // planning each chunk so newly ingested videos join the next chunk's
  // plan. Null = static dataset.
  std::function<Result<DatasetMeta>()> dataset_refresh;

  // Storage.
  bool enable_pruning = true;  // false: cache leaves only (Fig. 17 ablation)
  uint64_t storage_budget_bytes = 256ULL * 1024 * 1024;
  size_t container_cache_entries = 8;
  // Transparent cache compression (DESIGN.md §11): installed on the cache at
  // construction; demote encodes run on the async pool so demotion stays off
  // the demand path. Disabled by default (the cache stores raw bytes).
  CompressionPolicy compression;
};

// A snapshot of the service's counters (SandService::stats()).
struct ServiceStats {
  ExecutorStats exec;
  uint64_t batches_served = 0;
  uint64_t demand_materializations = 0;
  uint64_t pre_materialize_jobs = 0;
  uint64_t evictions = 0;
  uint64_t chunks_planned = 0;
  uint64_t recovered_objects = 0;
  uint64_t disk_degraded = 0;  // 1 while the disk tier is offline (memory-only)
};

class SandService : public ViewProvider {
 public:
  SandService(std::shared_ptr<ObjectStore> dataset_store, DatasetMeta meta,
              std::shared_ptr<TieredCache> cache, std::vector<TaskConfig> tasks,
              ServiceOptions options);
  ~SandService() override;

  // Plans the first chunk and launches pre-materialization.
  Status Start();

  // Drains in-flight work and stops the worker pool.
  void Shutdown();

  // --- ViewProvider -------------------------------------------------------
  Result<SharedBytes> Materialize(const ViewPath& path) override;
  Result<std::string> GetMetadata(const ViewPath& path, const std::string& name) override;
  Status OnSessionOpen(const std::string& task) override;
  Status OnSessionClose(const std::string& task) override;
  Result<std::vector<std::string>> ListChildren(const std::string& path) override;
  // Refreshes derived gauges (pool depths) — called by SandFs before
  // /.sand control snapshots.
  void PublishObservability() override;

  // --- Introspection ------------------------------------------------------
  SandFs& fs() { return fs_; }
  CpuMeter& cpu_meter() { return cpu_meter_; }
  TieredCache& cache() { return *cache_; }
  SchedulerStats scheduler_stats() { return scheduler_->stats(); }
  // Tenant scheduler quota passthrough — the socket front-end's
  // sched_cap_hook target (net::SandServer::Options).
  void SetTenantRunningCap(uint32_t tenant_id, int max_running) {
    scheduler_->SetTenantRunningCap(tenant_id, max_running);
  }
  // Stats of the shared GOP-decode pool; zeros when decode_threads == 0.
  WorkerPoolStats decode_pool_stats() {
    return decode_pool_ ? decode_pool_->stats() : WorkerPoolStats{};
  }
  ServiceStats stats();
  // Pruning report of the most recently planned chunk.
  PruningReport last_pruning_report();
  // Blocks until all queued background jobs complete (tests/benches).
  // Scheduler jobs queue demote encodes on the async pool, so the
  // scheduler drains first.
  void WaitForBackgroundWork() {
    scheduler_->WaitIdle();
    async_pool_->WaitIdle();
  }

  // Crash recovery (§5.5): rescan the disk tier, restore the metadata
  // checkpoint if one is present (training progress), rebuild the current
  // chunk's plan, and count planned objects that survived.
  Result<uint64_t> RecoverFromDisk();

  // §5.5: writes the metadata checkpoint (configs + planner identity +
  // progress) to the cache's disk tier. Also done automatically whenever a
  // new k-epoch chunk is planned.
  Status SaveCheckpoint();
  ServiceCheckpoint MakeCheckpoint();

 private:
  struct ChunkState {
    MaterializationPlan plan;
    PruningReport pruning;
    bool jobs_submitted = false;
    // (task, epoch, iteration) -> index into plan.batches.
    std::map<std::tuple<int, int64_t, int64_t>, size_t> batch_index;
    // Per-video materialization claim state so demand-feeding and
    // pre-materialization never duplicate a subtree's work:
    // 0 = unclaimed, 1 = running, 2 = done.
    std::mutex video_mutex;
    std::condition_variable video_cv;
    std::vector<int> video_state;
    // The chunk before this one, when it was planned first (null for
    // chunk 0); MaterializeClaimed runs its subtrees first.
    std::shared_ptr<ChunkState> previous;
  };

  // Claims video `v` of `chunk` for materialization. Returns true when the
  // caller should run the subtree job; false when it was already done (or,
  // with wait_if_running, after waiting for the running owner).
  static bool ClaimVideo(ChunkState& chunk, int video, bool wait_if_running);
  static void FinishVideo(ChunkState& chunk, int video);
  // Runs `executor` (built on video `video` of `chunk`, which the caller
  // claimed) over the video's flagged subtree, then marks the video done.
  // First claims and runs the previous chunk's subtree for the same video
  // name, or waits for its owner, so the chunks' shared nodes are always
  // computed by the earlier chunk.
  Status MaterializeClaimed(ChunkState& chunk, int video, SubtreeExecutor& executor);

  struct EvictMeta {
    int64_t last_use = 0;                 // final consumer iteration
    std::vector<int64_t> uses;            // sorted consumer iterations
  };

  int64_t ChunkOf(int64_t epoch) const { return epoch / options_.k_epochs; }

  // Builds (plan + prune + register + submit jobs) chunk `index` if absent.
  // Returns the chunk. Thread-safe.
  Result<std::shared_ptr<ChunkState>> EnsureChunk(int64_t index);

  Result<int> TaskIndex(const std::string& tag) const;

  // Serves one batch view synchronously through the demand-feeding class,
  // then advances the task's progress: batches_served, next-chunk kickoff,
  // eviction.
  Result<SharedBytes> MaterializeBatch(const ViewPath& path);
  // Assembles the batch's clips: reads every cache-flagged leaf with one
  // cache read, then runs one demand-feeding job per source video that has
  // a leaf left to compute.
  Result<std::vector<uint8_t>> AssembleBatch(const std::shared_ptr<ChunkState>& chunk,
                                             const BatchPlan& batch);

  // Serves frame / aug-frame intermediate views.
  Result<SharedBytes> MaterializeIntermediate(const ViewPath& path);

  void SubmitPreMaterialization(const std::shared_ptr<ChunkState>& chunk);

  // Applies the eviction policy when cache usage crosses the watermark.
  void MaybeEvict();
  // Smallest in-progress global iteration across active tasks.
  int64_t GlobalProgress();

  double MemoryPressure();

  DatasetMeta meta_;  // refreshed per chunk when dataset_refresh is set
  const ServiceOptions options_;
  std::vector<TaskConfig> tasks_;
  std::shared_ptr<ObjectStore> dataset_store_;
  std::shared_ptr<TieredCache> cache_;
  ContainerCache containers_;
  // Work counts, read by stats(): the executors' on "sand.exec.*", the
  // rest on "sand.service.<field>". Declared before the pools whose
  // threads bump them.
  ExecCounters exec_counters_;
  obs::InstanceCounter batches_served_{"sand.service.batches_served"};
  obs::InstanceCounter demand_materializations_{"sand.service.demand_materializations"};
  obs::InstanceCounter pre_materialize_jobs_{"sand.service.pre_materialize_jobs"};
  obs::InstanceCounter evictions_{"sand.service.evictions"};
  obs::InstanceCounter chunks_planned_{"sand.service.chunks_planned"};
  std::atomic<uint64_t> recovered_objects_{0};
  std::unique_ptr<MaterializationScheduler> scheduler_;
  std::unique_ptr<WorkerPool> async_pool_;
  // Shared GOP-slice decode pool (null when decode_threads == 0). Slice
  // tasks never block on other pool tasks (RunAll runs refused slices
  // inline), so it is safe for scheduler workers and reading threads to fan
  // into it. Shut down last: executors on the scheduler's workers may still
  // be fanning slices into it while they drain.
  std::unique_ptr<WorkerPool> decode_pool_;
  SandFs fs_;
  CpuMeter cpu_meter_;

  std::mutex plan_mutex_;
  std::map<int64_t, std::shared_ptr<ChunkState>> chunks_;
  PruningReport last_pruning_;
  bool started_ = false;

  std::mutex progress_mutex_;
  std::vector<int64_t> task_progress_;  // next global iteration per task
  std::vector<bool> task_active_;

  std::mutex evict_mutex_;
  std::map<std::string, EvictMeta> evict_index_;
};

}  // namespace sand

#endif  // SAND_CORE_SAND_SERVICE_H_
