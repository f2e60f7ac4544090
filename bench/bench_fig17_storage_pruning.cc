// Fig. 17 — preprocessing time under different storage sizes, with and
// without object graph pruning (SlowFast + MAE together), extended with a
// budget sweep with and without the compressed cache tier (DESIGN.md §11).
//
// Paper: with 3 TB pruning cuts recomputation overhead ~10%; with 1.5 TB,
// ~25%. The storage sizes scale down with the dataset here. The extension
// asks the complementary question: at a fixed byte budget, how much
// effective capacity does lossless compression buy, and what does decode
// cost the demand path?
//
// Each sweep cell starts a fresh service, and one pass moves a lot from run
// to run on a shared host, so full mode times every cell 5 times and prints
// the median iteration time with its min-max.
//
// --smoke runs a tiny sweep, one pass per cell, and exits non-zero if the
// codec fails to round-trip or to deliver its expected ratio (CI gate, see
// tools/check_build.sh).

#include "bench/bench_common.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/strings.h"
#include "src/common/units.h"
#include "src/compress/lossy.h"
#include "src/obs/metrics.h"
#include "src/pruning/graph_pruning.h"

using namespace sand;

namespace {

// The smallest lossless ratio --smoke accepts.
constexpr double kSmokeMinRatio = 2.5;

// Serves every batch of the chunk once and reports the average demand-side
// preprocessing wall time per iteration.
double AvgIterationPreprocMs(const BenchEnv& env, uint64_t budget, bool enable_pruning) {
  std::vector<TaskConfig> tasks = {
      MakeTaskConfig(SlowFastProfile(), env.meta.path, "slowfast"),
      MakeTaskConfig(MaeProfile(), env.meta.path, "mae")};
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(budget / 4),
                                             std::make_shared<MemoryStore>(budget));
  ServiceOptions options;
  options.k_epochs = 6;
  options.total_epochs = 6;
  options.num_threads = kBenchCpuThreads;
  options.enable_pruning = enable_pruning;
  options.storage_budget_bytes = budget;
  SandService service(env.dataset_store, env.meta, cache, tasks, options);
  if (auto status = service.Start(); !status.ok()) {
    std::abort();
  }
  service.WaitForBackgroundWork();

  Stopwatch watch;
  int64_t iterations = 0;
  for (int t = 0; t < 2; ++t) {
    int64_t ipe = IterationsPerEpochFor(env.meta, tasks[static_cast<size_t>(t)].sampling);
    for (int64_t epoch = 0; epoch < 6; ++epoch) {
      for (int64_t iter = 0; iter < ipe; ++iter) {
        auto fd = service.fs().Open(
            ViewPath::Batch(tasks[static_cast<size_t>(t)].tag, epoch, iter).Format());
        if (!fd.ok() || !service.fs().ReadAllShared(*fd).ok()) {
          std::abort();
        }
        (void)service.fs().Close(*fd);
        ++iterations;
      }
    }
  }
  return ToMillis(watch.Elapsed()) / static_cast<double>(iterations);
}

// One cell of the codec x budget sweep: a two-task service, with or
// without compression of its cached views, demand-reading every batch of
// the chunk `epochs` times.
struct CodecRun {
  PipelineRun run;
  double ratio = 1.0;       // raw bytes / encoded bytes over touched objects
  uint64_t decode_hits = 0; // GetShared hits that went through a decode
};

CodecRun RunCodecConfig(const BenchEnv& env, uint64_t budget, bool compress, int epochs) {
  obs::Registry::Get().ResetAll();  // per-config metric deltas
  std::vector<TaskConfig> tasks = {
      MakeTaskConfig(SlowFastProfile(), env.meta.path, "slowfast"),
      MakeTaskConfig(MaeProfile(), env.meta.path, "mae")};
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(budget / 4),
                                             std::make_shared<MemoryStore>(budget));
  ServiceOptions options;
  options.k_epochs = epochs;
  options.total_epochs = epochs;
  options.num_threads = kBenchCpuThreads;
  options.enable_pruning = true;
  options.storage_budget_bytes = budget;
  if (compress) {
    options.compression.enabled = true;
    options.compression.compress_on_disk_put = true;
    options.compression.min_object_bytes = 256;
  }
  SandService service(env.dataset_store, env.meta, cache, tasks, options);
  if (auto status = service.Start(); !status.ok()) {
    std::abort();
  }
  service.WaitForBackgroundWork();

  CodecRun out;
  std::vector<Nanos> samples;
  Stopwatch watch;
  for (int t = 0; t < 2; ++t) {
    int64_t ipe = IterationsPerEpochFor(env.meta, tasks[static_cast<size_t>(t)].sampling);
    for (int64_t epoch = 0; epoch < epochs; ++epoch) {
      for (int64_t iter = 0; iter < ipe; ++iter) {
        Stopwatch iter_watch;
        auto fd = service.fs().Open(
            ViewPath::Batch(tasks[static_cast<size_t>(t)].tag, epoch, iter).Format());
        if (!fd.ok() || !service.fs().ReadAllShared(*fd).ok()) {
          std::abort();
        }
        (void)service.fs().Close(*fd);
        samples.push_back(iter_watch.Elapsed());
        ++out.run.metrics.batches;
      }
    }
  }
  out.run.metrics.wall_ns = watch.Elapsed();
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    out.run.metrics.iter_p50_ns = samples[samples.size() / 2];
    out.run.metrics.iter_p95_ns = samples[samples.size() * 95 / 100];
  }
  out.run.frames_decoded = service.stats().exec.frames_decoded;
  out.run.cache_hits = service.stats().exec.cache_hits;
  out.ratio = std::max(1.0, cache->CompressionRatio());
  out.decode_hits = static_cast<uint64_t>(
      obs::Registry::Get().GetCounter("sand.compress.hits")->Value());
  return out;
}

// A row reports a cell's median pass (by iteration time) with the min-max
// over its passes.
int RunCodecSweep(const BenchEnv& env, uint64_t full, const std::vector<double>& fractions,
                  int epochs, bool smoke) {
  const int repeats = smoke ? 1 : 5;
  std::printf("\ncompressed cache tier: codec x budget (both tasks, pruning on, "
              "median of %d pass%s)\n",
              repeats, repeats == 1 ? "" : "es");
  std::printf("%-14s %-10s %-10s %-14s %-10s %-10s %-12s %-12s\n", "budget", "codec",
              "iter ms", "min-max", "p95 ms", "ratio", "effective", "dec hits");
  PrintRule();
  int failures = 0;
  double baseline_ms = 0.0;
  for (double fraction : fractions) {
    uint64_t budget = static_cast<uint64_t>(static_cast<double>(full) * fraction);
    for (bool compress : {false, true}) {
      const char* codec = compress ? "lossless" : "none";
      std::vector<CodecRun> passes;
      for (int i = 0; i < repeats; ++i) {
        passes.push_back(RunCodecConfig(env, budget, compress, epochs));
      }
      std::sort(passes.begin(), passes.end(), [](const CodecRun& a, const CodecRun& b) {
        return a.run.metrics.AvgIterationMs() < b.run.metrics.AvgIterationMs();
      });
      const CodecRun& r = passes[passes.size() / 2];
      double iter_ms = r.run.metrics.AvgIterationMs();
      if (!compress) baseline_ms = iter_ms;
      // Effective capacity: the raw bytes this budget holds once objects
      // are stored encoded.
      uint64_t effective = static_cast<uint64_t>(static_cast<double>(budget) * r.ratio);
      std::printf("%-14s %-10s %-10.2f %-14s %-10.2f %-10.2f %-12s %-12llu\n",
                  StrFormat("%s (%.0f%%)", FormatBytes(budget).c_str(), fraction * 100)
                      .c_str(),
                  codec, iter_ms,
                  StrFormat("%.2f-%.2f", passes.front().run.metrics.AvgIterationMs(),
                            passes.back().run.metrics.AvgIterationMs())
                      .c_str(),
                  ToMillis(r.run.metrics.iter_p95_ns), r.ratio, FormatBytes(effective).c_str(),
                  static_cast<unsigned long long>(r.decode_hits));
      RecordBenchResult(StrFormat("codec_sweep/%s", codec),
                        {{"codec", codec},
                         {"budget_bytes", std::to_string(budget)},
                         {"budget_fraction", StrFormat("%.2f", fraction)},
                         {"compression_ratio", StrFormat("%.3f", r.ratio)},
                         {"effective_capacity_bytes", std::to_string(effective)}},
                        r.run);
      if (smoke) {
        // CI gates: the codec must complete and deliver its ratio (about
        // 3.3 on these frames; 1.8 when the encoder wrote every 3-byte match).
        if (compress && r.ratio < kSmokeMinRatio) {
          std::fprintf(stderr, "SMOKE FAIL: lossless ratio %.2f < %.2f\n", r.ratio,
                       kSmokeMinRatio);
          ++failures;
        }
        if (baseline_ms > 0 && iter_ms > baseline_ms * 10.0) {
          std::fprintf(stderr, "SMOKE FAIL: %s iter %.2fms > 10x baseline %.2fms\n",
                       codec, iter_ms, baseline_ms);
          ++failures;
        }
      }
    }
  }
  std::printf("\nshape: encoded objects stretch the same byte budget by the ratio\n"
              "column; the demand path pays only the decode-on-hit column, hidden\n"
              "behind async demotion on the write side.\n");
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  sand::ParseBenchFlags(static_cast<int>(passthrough.size()), passthrough.data());

  if (smoke) {
    // Tiny world, one tight budget, with and without compression: fails
    // loudly in CI if the codec stops round-tripping or compressing.
    BenchEnv env = MakeBenchEnv(4, 16, 32, 48, 8);
    PrintBenchHeader("Fig. 17 (smoke): compressed cache tier gates",
                     "codec sweep on a reduced world; non-zero exit on failure");
    std::vector<TaskConfig> probe_tasks = {
        MakeTaskConfig(SlowFastProfile(), env.meta.path, "slowfast"),
        MakeTaskConfig(MaeProfile(), env.meta.path, "mae")};
    PlannerOptions probe;
    probe.k_epochs = 2;
    auto plan = BuildMaterializationPlan(env.meta, probe_tasks, 0, probe);
    uint64_t full = plan.ok() ? plan->CachedBytes() : (1ULL << 20);
    int failures = RunCodecSweep(env, full, {0.45}, 2, true);
    if (failures > 0) {
      std::fprintf(stderr, "smoke: %d gate(s) failed\n", failures);
      return 1;
    }
    std::printf("smoke: all codec gates passed\n");
    return 0;
  }

  BenchEnv env = MakeBenchEnv();
  PrintBenchHeader("Fig. 17: preprocessing time vs storage size (pruning on/off)",
                   "Fig. 17: avg per-iteration preprocessing, 2 tasks, 2 budgets");

  // Scaled analogues of the paper's 3 TB / 1.5 TB local SSDs: enough for
  // roughly half / a quarter of the chunk's leaf objects.
  std::vector<TaskConfig> probe_tasks = {
      MakeTaskConfig(SlowFastProfile(), env.meta.path, "slowfast"),
      MakeTaskConfig(MaeProfile(), env.meta.path, "mae")};
  PlannerOptions probe;
  probe.k_epochs = 6;
  auto plan = BuildMaterializationPlan(env.meta, probe_tasks, 0, probe);
  uint64_t full = plan.ok() ? plan->CachedBytes() : (8ULL << 20);

  std::printf("%-22s %-18s %-18s %-12s\n", "storage budget", "w/o pruning (ms)",
              "w/ pruning (ms)", "reduction");
  PrintRule();
  for (double fraction : {1.1, 0.45}) {  // scaled ~3TB / ~1.5TB analogues
    uint64_t budget = static_cast<uint64_t>(static_cast<double>(full) * fraction);
    double without = AvgIterationPreprocMs(env, budget, false);
    double with = AvgIterationPreprocMs(env, budget, true);
    std::printf("%-22s %-18.2f %-18.2f %-11.1f%%\n",
                StrFormat("%s (%.0f%%)", FormatBytes(budget).c_str(), fraction * 100).c_str(),
                without, with, 100.0 * (1.0 - with / without));
  }
  std::printf("\npaper shape: pruning reduces recompute ~10%% at the larger budget and\n"
              "~25%% at the tighter one (smarter cache contents, same capacity).\n");

  RunCodecSweep(env, full, {1.1, 0.45}, 6, false);
  return 0;
}
