// Batch sources: SAND and the paper's baselines behind one interface.
//
//   SandBatchSource      - reads batch views through SandFs (open/read/
//                          getxattr/close), i.e. the system under test
//   OnDemandCpuSource    - the PyAV/decord-style baseline: every batch is
//                          decoded and augmented from scratch on CPU worker
//                          threads (with one-batch prefetch, like a PyTorch
//                          dataloader); nothing is ever reused
//   NaiveCacheSource     - OnDemandCpuSource plus a cache of all decoded
//                          frames up to the storage budget (the "why not
//                          cache everything" strawman of §7.2)
//   OnDemandGpuSource    - the DALI/NVDEC-style baseline: decoding occupies
//                          the GPU's hardware decoder (modeled time) and
//                          pins device memory, shrinking feasible batches
//   IdealSource          - all batches pre-stored; zero preprocessing
//                          (the paper's stall-free upper bound)

#ifndef SAND_BASELINES_SOURCES_H_
#define SAND_BASELINES_SOURCES_H_

#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "src/core/executor.h"
#include "src/core/sand_service.h"
#include "src/graph/concrete_graph.h"
#include "src/sched/scheduler.h"
#include "src/sim/gpu_model.h"
#include "src/storage/object_store.h"
#include "src/vfs/sand_fs.h"
#include "src/workloads/trainer.h"

namespace sand {

// --- SAND -------------------------------------------------------------------

class SandBatchSource : public BatchSource {
 public:
  // `prefetch`: double-buffer the next batch view (the dataloader-side
  // overlap every framework provides; SAND's pre-materialization runs
  // underneath it).
  SandBatchSource(SandFs& fs, std::string task_tag, int64_t iterations_per_epoch,
                  bool prefetch = true);
  ~SandBatchSource() override;

  Result<SharedBytes> NextBatch(int64_t epoch, int64_t iteration) override;
  int64_t IterationsPerEpoch() const override { return iterations_per_epoch_; }
  void Finish() override;

 private:
  Result<SharedBytes> FetchView(int64_t epoch, int64_t iteration);

  SandFs& fs_;
  std::string task_tag_;
  int64_t iterations_per_epoch_;
  bool prefetch_;
  int session_fd_ = -1;
  // One-deep pipeline of the next batch read.
  std::future<Result<SharedBytes>> pending_;
  int64_t pending_epoch_ = -1;
  int64_t pending_iteration_ = -1;
};

// --- On-demand CPU (and its naive-cache variant) ---------------------------

class OnDemandCpuSource : public BatchSource {
 public:
  struct Options {
    int num_threads = 4;
    uint64_t seed = 42;
    bool prefetch = true;  // overlap next-batch preprocessing with training
    // Encoded containers kept in memory between accesses. At real dataset
    // scale nothing survives between epochs; small values model that.
    size_t container_cache_entries = 8;
    // Non-null: cache every decoded frame up to the store's capacity (the
    // NaiveCacheSource behavior).
    std::shared_ptr<TieredCache> naive_cache;
  };

  OnDemandCpuSource(std::shared_ptr<ObjectStore> dataset_store, DatasetMeta meta,
                    TaskConfig task, Options options, CpuMeter* meter);
  ~OnDemandCpuSource() override;

  Result<SharedBytes> NextBatch(int64_t epoch, int64_t iteration) override;
  int64_t IterationsPerEpoch() const override;
  void Finish() override;

  ExecutorStats exec_stats() { return exec_counters_.stats(); }

 private:
  struct Build {
    std::vector<Clip> clips;
    std::vector<std::future<Status>> parts;
  };

  // The plan for one epoch (k=1, uncoordinated, nothing flagged for cache
  // unless naive_cache is set, in which case decoded frames are flagged).
  Result<const MaterializationPlan*> PlanForEpoch(int64_t epoch);

  // Launches the fan-out build of one batch (one job per source video).
  Result<std::shared_ptr<Build>> StartBuild(int64_t epoch, int64_t iteration);

  DatasetMeta meta_;
  TaskConfig task_;
  Options options_;
  CpuMeter* meter_;
  ContainerCache containers_;
  ExecCounters exec_counters_;  // bumped by the pool's executors
  std::unique_ptr<MaterializationScheduler> pool_;

  std::mutex mutex_;
  std::map<int64_t, MaterializationPlan> plans_;
  std::map<std::pair<int64_t, int64_t>, std::shared_ptr<Build>> inflight_;
};

// --- On-demand GPU (DALI/NVDEC-like) ----------------------------------------
//
// Timing and memory are modeled (no physical decoder exists); the source
// emits shape-correct zero batches, which is sound because the simulated
// training step never inspects pixels. Documented in DESIGN.md.

class OnDemandGpuSource : public BatchSource {
 public:
  OnDemandGpuSource(std::shared_ptr<ObjectStore> dataset_store, DatasetMeta meta,
                    ModelProfile profile, GpuModel* gpu);

  // Reserves device memory for the decode session + model + batch buffers.
  // Fails (RESOURCE_EXHAUSTED) when the batch does not fit — callers probe
  // feasible batch sizes with this (Fig. 4).
  Status Reserve();
  void Release();

  Result<SharedBytes> NextBatch(int64_t epoch, int64_t iteration) override;
  int64_t IterationsPerEpoch() const override;
  void Finish() override { Release(); }

  // Largest clips-per-batch that fits the GPU under this decode mode.
  static int MaxFeasibleClips(const GpuModel& gpu, const ModelProfile& profile,
                              uint64_t frame_bytes, bool gpu_decode);

 private:
  std::shared_ptr<ObjectStore> dataset_store_;
  DatasetMeta meta_;
  ModelProfile profile_;
  GpuModel* gpu_;
  uint64_t reserved_bytes_ = 0;
};

// --- Ideal -------------------------------------------------------------------

class IdealSource : public BatchSource {
 public:
  // `batch` is the pre-stored training batch returned for every iteration.
  // Handing out the same shared buffer each step is the zero-preprocessing
  // *and* zero-copy upper bound.
  IdealSource(std::vector<uint8_t> batch, int64_t iterations_per_epoch)
      : batch_(MakeSharedBytes(std::move(batch))),
        iterations_per_epoch_(iterations_per_epoch) {}

  Result<SharedBytes> NextBatch(int64_t epoch, int64_t iteration) override {
    (void)epoch;
    (void)iteration;
    return batch_;
  }
  int64_t IterationsPerEpoch() const override { return iterations_per_epoch_; }

 private:
  SharedBytes batch_;
  int64_t iterations_per_epoch_;
};

// Iterations per epoch for a sampling config over a dataset (drop-last).
int64_t IterationsPerEpochFor(const DatasetMeta& meta, const SamplingConfig& sampling);

}  // namespace sand

#endif  // SAND_BASELINES_SOURCES_H_
