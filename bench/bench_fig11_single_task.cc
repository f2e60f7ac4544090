// Fig. 11 — single-task training across the four models.
//
// (a) end-to-end training time, normalized to the on-demand GPU baseline
//     (paper: SAND 2.4-5.6x faster than CPU, 1.4-1.7x faster than GPU).
// (b) GPU utilization (paper: SAND 2.5-5.7x over CPU, 1.4-1.7x over GPU).
// Plus the naive-cache strawman (paper: ~2.7% speedup over on-demand).

#include "bench/bench_common.h"

#include "src/common/strings.h"
#include "src/common/units.h"

using namespace sand;

int main(int argc, char** argv) {
  sand::ParseBenchFlags(argc, argv);
  BenchEnv env = MakeBenchEnv();
  // Smoke mode (check_build's trace gate): one model, short windows —
  // enough to exercise every pipeline stage without the full sweep.
  const int64_t epochs = SmokeMode() ? 2 : 8;
  std::vector<ModelProfile> profiles = AllModelProfiles();
  if (SmokeMode()) {
    profiles.resize(1);
  }

  PrintBenchHeader("Fig. 11: single-task training time and GPU utilization",
                   "Fig. 11(a)+(b), plus the naive-caching comparison of §7.2");

  std::printf("%-10s %-9s %-9s %-9s %-9s %-9s | %-7s %-7s %-7s\n", "model", "cpu",
              "naive", "gpu", "sand", "ideal", "sand/", "cpu/", "gpu/");
  std::printf("%-10s %-9s %-9s %-9s %-9s %-9s | %-7s %-7s %-7s\n", "", "(ms)", "(ms)",
              "(ms)", "(ms)", "(ms)", "ideal", "sand", "sand");
  PrintRule();

  for (const ModelProfile& profile : profiles) {
    PipelineRun cpu = RunCpuPipeline(env, profile, epochs);
    PipelineRun naive = RunCpuPipeline(env, profile, epochs, /*naive_cache=*/true);
    PipelineRun gpu = RunGpuPipeline(env, profile, epochs);
    PipelineRun sand = RunSandPipeline(env, profile, epochs, {}, nullptr,
                                       /*warmup_epochs=*/epochs);
    PipelineRun ideal = RunIdealPipeline(env, profile, epochs);

    for (const auto& [pipeline, run] :
         {std::pair<const char*, const PipelineRun*>{"cpu", &cpu},
          {"naive", &naive},
          {"gpu", &gpu},
          {"sand", &sand},
          {"ideal", &ideal}}) {
      RecordBenchResult(StrFormat("fig11/%s/%s", profile.name.c_str(), pipeline),
                        {{"model", profile.name}, {"pipeline", pipeline}}, *run);
    }

    auto ms = [](const PipelineRun& run) { return ToMillis(run.metrics.wall_ns); };
    std::printf("%-10s %-9.0f %-9.0f %-9.0f %-9.0f %-9.0f | %-7.2f %-7.2f %-7.2f\n",
                profile.name.c_str(), ms(cpu), ms(naive), ms(gpu), ms(sand), ms(ideal),
                ms(sand) / ms(ideal), ms(cpu) / ms(sand), ms(gpu) / ms(sand));
    std::printf("%-10s util: %-8.2f %-9.2f %-8.2f %-9.2f %-7.2f | util gains: %.1fx vs cpu, "
                "%.1fx vs gpu\n",
                "", cpu.metrics.GpuUtilization(), naive.metrics.GpuUtilization(),
                gpu.metrics.GpuUtilization(), sand.metrics.GpuUtilization(),
                ideal.metrics.GpuUtilization(),
                sand.metrics.GpuUtilization() / cpu.metrics.GpuUtilization(),
                sand.metrics.GpuUtilization() / gpu.metrics.GpuUtilization());
  }
  std::printf(
      "\npaper shape: sand 2.4-5.6x faster than cpu, 1.4-1.7x faster than gpu;\n"
      "utilization 2.5-5.7x (cpu) / 1.4-1.7x (gpu); naive cache barely helps.\n");

  // --- §7.3 demand path ------------------------------------------------------
  // When the storage budget forbids pre-materialization (pre_materialize =
  // false) every batch is built at read() time. SandBatchSource keeps the
  // next batch read in flight while the trainer computes (the loader-side
  // read-ahead of PyTorch-style dataloaders), so the steady-state iteration
  // cost is max(step, materialize): the row reads at or near the simulated
  // GPU step when materialization hides under it.
  std::printf("\nFig. 11 extra: demand path (pre_materialize=false)\n");
  std::printf("%-10s %-11s %-11s %-8s\n", "model", "demand", "gpu step", "demand/");
  std::printf("%-10s %-11s %-11s %-8s\n", "", "(ms/iter)", "(ms)", "step");
  PrintRule();

  const int64_t demand_warmup = SmokeMode() ? 1 : 2;
  const int64_t demand_epochs = SmokeMode() ? 2 : 6;
  for (const ModelProfile& profile : profiles) {
    ServiceOptions options = BenchServiceOptions(demand_warmup + demand_epochs);
    options.pre_materialize = false;
    TaskConfig task = MakeTaskConfig(profile, env.meta.path, "bench");
    auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(512ULL * kMiB),
                                               std::make_shared<MemoryStore>(2ULL * kGiB));
    SandService service(env.dataset_store, env.meta, cache, {task}, options);
    if (auto status = service.Start(); !status.ok()) {
      std::fprintf(stderr, "demand pipeline: %s\n", status.ToString().c_str());
      std::abort();
    }
    int64_t ipe = IterationsPerEpochFor(env.meta, task.sampling);
    GpuModel gpu;
    {
      // Warmup in its own session, like the timed run below.
      SandBatchSource warm_source(service.fs(), "bench", ipe);
      TrainRunOptions warm;
      warm.epochs = demand_warmup;
      warm.cpu_cores = kBenchCpuThreads;
      if (auto status = RunTraining(warm_source, gpu, profile, warm, nullptr); !status.ok()) {
        std::fprintf(stderr, "demand warmup: %s\n", status.status().ToString().c_str());
        std::abort();
      }
    }
    SandBatchSource source(service.fs(), "bench", ipe);
    TrainRunOptions train;
    train.epochs = demand_epochs;
    train.epoch_begin = demand_warmup;
    train.cpu_cores = kBenchCpuThreads;
    auto metrics = RunTraining(source, gpu, profile, train, &service.cpu_meter());
    if (!metrics.ok()) {
      std::fprintf(stderr, "demand pipeline: %s\n", metrics.status().ToString().c_str());
      std::abort();
    }
    double demand_ms = metrics->AvgIterationMs();
    double step_ms = ToMillis(profile.gpu_step);
    std::printf("%-10s %-11.2f %-11.2f %-8.2f\n", profile.name.c_str(), demand_ms, step_ms,
                demand_ms / step_ms);
  }
  return 0;
}
