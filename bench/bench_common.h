// Shared environment and pipeline runners for the per-figure benchmarks.
//
// Every end-to-end bench builds the same scaled-down world: a synthetic
// encoded dataset (standing in for Kinetics/HD-VILA/YouTube-1080p), a
// simulated A100 (GpuModel), 4 preprocessing vCPU threads, and one of the
// pipelines under test:
//
//   cpu    - on-demand CPU decode+augment every batch (PyAV/decord-like)
//   gpu    - on-demand NVDEC decode on the GPU (DALI-like, modeled)
//   naive  - cpu + cache-all-decoded-frames up to the budget
//   sand   - the SAND service (plan, prune, pre-materialize, reuse)
//   ideal  - pre-stored batches, zero preprocessing
//
// Absolute times are milliseconds (the real system's seconds); the paper's
// *shape* — who wins, by what factor — is the reproduction target.

#ifndef SAND_BENCH_BENCH_COMMON_H_
#define SAND_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/sources.h"
#include "src/core/sand_service.h"
#include "src/ray/mini_ray.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"
#include "src/workloads/trainer.h"

namespace sand {

struct BenchEnv {
  std::shared_ptr<MemoryStore> dataset_store;
  DatasetMeta meta;
  SyntheticDatasetOptions dataset_options;
};

// Default bench world: 12 videos x 48 frames at 64x96 (GOP 8).
BenchEnv MakeBenchEnv(int videos = 12, int frames = 48, int height = 64, int width = 96,
                      int gop = 8, uint64_t seed = 2025);

// The number of preprocessing threads standing in for the 12 vCPUs/GPU of
// the paper's A2 instances (scaled to this machine).
inline constexpr int kBenchCpuThreads = 4;

// Result of one pipeline run, with the pieces each figure needs.
struct PipelineRun {
  RunMetrics metrics;
  uint64_t frames_decoded = 0;
  uint64_t cache_hits = 0;
  uint64_t remote_bytes_read = 0;
  // Registry JSON of what the run recorded (the Run*Pipeline helpers fill
  // it in; see RecordBenchResult).
  std::string metrics_json;
};

// Runners. `epochs` spans the measured window (cold start included).
PipelineRun RunCpuPipeline(const BenchEnv& env, const ModelProfile& profile, int64_t epochs,
                           bool naive_cache = false,
                           std::shared_ptr<ObjectStore> dataset_override = nullptr,
                           size_t container_cache_entries = 8);
PipelineRun RunGpuPipeline(const BenchEnv& env, const ModelProfile& profile, int64_t epochs);
// `warmup_epochs` run un-timed before the measured window: the paper's
// experiments span 100-200 epochs where the cold first chunk amortizes
// away, so steady state is the comparable regime.
PipelineRun RunSandPipeline(const BenchEnv& env, const ModelProfile& profile, int64_t epochs,
                            ServiceOptions options = {},
                            std::shared_ptr<ObjectStore> dataset_override = nullptr,
                            int64_t warmup_epochs = 0);
PipelineRun RunIdealPipeline(const BenchEnv& env, const ModelProfile& profile, int64_t epochs);

// Builds one real batch for the ideal pipeline / warm starts.
Result<std::vector<uint8_t>> BuildOneBatch(const BenchEnv& env, const TaskConfig& task);

// Shared bench CLI flags; call first in every bench main(). Recognized:
//   --metrics-out <file>   write the obs registry JSON snapshot at exit
//                          (same bytes as reading /.sand/metrics)
//   --trace-out <file>     write the Chrome trace-event JSON ring at exit
//                          (same bytes as /.sand/trace; open in
//                          chrome://tracing or Perfetto)
//   --json-out <file>      write structured results at exit: one row per
//                          RecordBenchResult call (name, params,
//                          throughput, p50/p95 iteration latency, and an
//                          obs metrics snapshot taken at record time)
//   --smoke                ask the bench to run a minimal configuration
//                          (fewer models/epochs); used by the check_build
//                          trace gate. Benches opt in via SmokeMode().
//   --no-trace             disable the span ring before the bench starts;
//                          the on-vs-off pair bounds tracing overhead.
// Unknown flags print usage and exit(2).
void ParseBenchFlags(int argc, char** argv);

// True when --json-out was given; benches can skip optional configurations
// (or reset the obs registry between them) only when a report is wanted.
bool JsonOutEnabled();

// True when --smoke was given; benches shrink to their fastest meaningful
// configuration (first model profile, few epochs).
bool SmokeMode();

// Appends one result row to the --json-out report (no-op without the
// flag). `params` are configuration name/value pairs, emitted verbatim as
// strings. Throughput and latency fields come from `run`. The row's obs
// registry metrics are the run's own: `run.metrics_json` when a
// Run*Pipeline helper captured it, else what the registry recorded since
// the previous row.
void RecordBenchResult(const std::string& name,
                       const std::vector<std::pair<std::string, std::string>>& params,
                       const PipelineRun& run);

// Default SAND service options for benches (budget sized to the env).
ServiceOptions BenchServiceOptions(int64_t epochs);

// --- Table helpers -----------------------------------------------------------

void PrintBenchHeader(const std::string& title, const std::string& paper_reference);
void PrintRule();

}  // namespace sand

#endif  // SAND_BENCH_BENCH_COMMON_H_
