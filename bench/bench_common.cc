#include "bench/bench_common.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sand {

namespace {

std::string g_metrics_out;  // set by ParseBenchFlags; dumped at exit
std::string g_trace_out;
std::string g_json_out;
std::string g_bench_name;                 // basename(argv[0]) for the report
std::vector<std::string> g_json_records;  // serialized rows, in record order
obs::Registry::Snapshot g_previous_row;   // registry as of the last recorded row
bool g_smoke = false;

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void DumpObsOutputs() {
  auto write = [](const std::string& path, const std::string& body, const char* what) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s file: %s\n", what, path.c_str());
      return;
    }
    out << body;
    std::fprintf(stderr, "bench: wrote %s to %s\n", what, path.c_str());
  };
  if (!g_metrics_out.empty()) {
    write(g_metrics_out, obs::Registry::Get().ToJson(), "metrics");
  }
  if (!g_trace_out.empty()) {
    write(g_trace_out, obs::Tracer::Get().ToChromeJson(), "trace");
  }
  if (!g_json_out.empty()) {
    std::string body = "{\"bench\": \"" + EscapeJson(g_bench_name) + "\", \"results\": [\n";
    for (size_t i = 0; i < g_json_records.size(); ++i) {
      body += g_json_records[i];
      if (i + 1 < g_json_records.size()) body += ",";
      body += "\n";
    }
    body += "]}\n";
    write(g_json_out, body, "json results");
  }
}

}  // namespace

void ParseBenchFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    auto take_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a file argument\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--metrics-out") == 0) {
      g_metrics_out = take_value("--metrics-out");
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      g_trace_out = take_value("--trace-out");
    } else if (std::strcmp(argv[i], "--json-out") == 0) {
      g_json_out = take_value("--json-out");
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else if (std::strcmp(argv[i], "--no-trace") == 0) {
      obs::Tracer::Get().SetEnabled(false);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--metrics-out <file>] [--trace-out <file>] "
                   "[--json-out <file>] [--smoke] [--no-trace]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (!g_json_out.empty()) {
    const char* slash = std::strrchr(argv[0], '/');
    g_bench_name = slash != nullptr ? slash + 1 : argv[0];
  }
  if (!g_metrics_out.empty() || !g_trace_out.empty() || !g_json_out.empty()) {
    std::atexit(DumpObsOutputs);
  }
}

bool JsonOutEnabled() { return !g_json_out.empty(); }

bool SmokeMode() { return g_smoke; }

void RecordBenchResult(const std::string& name,
                       const std::vector<std::pair<std::string, std::string>>& params,
                       const PipelineRun& run) {
  if (g_json_out.empty()) return;
  const RunMetrics& m = run.metrics;
  double wall_s = static_cast<double>(m.wall_ns) / kNanosPerSecond;
  std::string row = "  {\"name\": \"" + EscapeJson(name) + "\", \"params\": {";
  for (size_t i = 0; i < params.size(); ++i) {
    if (i > 0) row += ", ";
    row += "\"" + EscapeJson(params[i].first) + "\": \"" + EscapeJson(params[i].second) + "\"";
  }
  row += "},\n";
  row += "   \"throughput_batches_per_s\": " +
         JsonDouble(wall_s > 0 ? static_cast<double>(m.batches) / wall_s : 0.0) + ",\n";
  row += "   \"avg_iteration_ms\": " + JsonDouble(m.AvgIterationMs()) + ",\n";
  row += "   \"p50_iteration_ms\": " + JsonDouble(ToMillis(m.iter_p50_ns)) + ",\n";
  row += "   \"p95_iteration_ms\": " + JsonDouble(ToMillis(m.iter_p95_ns)) + ",\n";
  row += "   \"gpu_utilization\": " + JsonDouble(m.GpuUtilization()) + ",\n";
  row += "   \"stall_ms_per_iteration\": " +
         JsonDouble(m.batches > 0 ? ToMillis(m.stall_ns) / static_cast<double>(m.batches)
                                  : 0.0) +
         ",\n";
  row += "   \"batches\": " + std::to_string(m.batches) + ",\n";
  row += "   \"frames_decoded\": " + std::to_string(run.frames_decoded) + ",\n";
  row += "   \"cache_hits\": " + std::to_string(run.cache_hits) + ",\n";
  row += "   \"metrics\": " +
         (run.metrics_json.empty() ? obs::Registry::Get().ToJson(g_previous_row)
                                   : run.metrics_json) +
         "}";
  g_previous_row = obs::Registry::Get().TakeSnapshot();
  g_json_records.push_back(std::move(row));
}

BenchEnv MakeBenchEnv(int videos, int frames, int height, int width, int gop, uint64_t seed) {
  SetLogLevel(LogLevel::kWarning);
  BenchEnv env;
  env.dataset_store = std::make_shared<MemoryStore>();
  env.dataset_options.num_videos = videos;
  env.dataset_options.frames_per_video = frames;
  env.dataset_options.height = height;
  env.dataset_options.width = width;
  env.dataset_options.gop_size = gop;
  env.dataset_options.seed = seed;
  auto meta = BuildSyntheticDataset(*env.dataset_store, env.dataset_options);
  if (!meta.ok()) {
    std::fprintf(stderr, "bench env: %s\n", meta.status().ToString().c_str());
    std::abort();
  }
  env.meta = meta.TakeValue();
  return env;
}

ServiceOptions BenchServiceOptions(int64_t epochs) {
  ServiceOptions options;
  options.k_epochs = static_cast<int>(epochs);
  options.total_epochs = epochs;
  options.num_threads = kBenchCpuThreads;
  options.storage_budget_bytes = 2ULL * kGiB;
  return options;
}

PipelineRun RunCpuPipeline(const BenchEnv& env, const ModelProfile& profile, int64_t epochs,
                           bool naive_cache, std::shared_ptr<ObjectStore> dataset_override,
                           size_t container_cache_entries) {
  const obs::Registry::Snapshot start = obs::Registry::Get().TakeSnapshot();
  PipelineRun run;
  TaskConfig task = MakeTaskConfig(profile, env.meta.path, "bench");
  OnDemandCpuSource::Options options;
  options.num_threads = kBenchCpuThreads;
  options.container_cache_entries = container_cache_entries;
  if (naive_cache) {
    // The paper's naive strawman: a cache that can hold only a small
    // fraction of the decoded frames (3 TB vs ~80 TB on Kinetics: <4%).
    uint64_t frames_total = static_cast<uint64_t>(env.meta.num_videos()) *
                            static_cast<uint64_t>(env.meta.frames_per_video);
    uint64_t budget = frames_total * env.meta.RawFrameBytes() / 25;  // ~4%
    options.naive_cache = std::make_shared<TieredCache>(
        std::make_shared<MemoryStore>(budget / 2), std::make_shared<MemoryStore>(budget));
  }
  CpuMeter meter;
  OnDemandCpuSource source(
      dataset_override != nullptr ? dataset_override : env.dataset_store, env.meta, task,
      options, &meter);
  GpuModel gpu;
  TrainRunOptions train;
  train.epochs = epochs;
  train.cpu_cores = kBenchCpuThreads;
  auto metrics = RunTraining(source, gpu, profile, train, &meter);
  if (!metrics.ok()) {
    std::fprintf(stderr, "cpu pipeline: %s\n", metrics.status().ToString().c_str());
    std::abort();
  }
  run.metrics = metrics.TakeValue();
  run.frames_decoded = source.exec_stats().frames_decoded;
  run.cache_hits = source.exec_stats().cache_hits;
  run.metrics_json = obs::Registry::Get().ToJson(start);
  return run;
}

PipelineRun RunGpuPipeline(const BenchEnv& env, const ModelProfile& profile, int64_t epochs) {
  const obs::Registry::Snapshot start = obs::Registry::Get().TakeSnapshot();
  PipelineRun run;
  GpuModel gpu;
  OnDemandGpuSource source(env.dataset_store, env.meta, profile, &gpu);
  (void)source.Reserve();
  TrainRunOptions train;
  train.epochs = epochs;
  train.cpu_cores = kBenchCpuThreads;
  auto metrics = RunTraining(source, gpu, profile, train, nullptr);
  if (!metrics.ok()) {
    std::fprintf(stderr, "gpu pipeline: %s\n", metrics.status().ToString().c_str());
    std::abort();
  }
  run.metrics = metrics.TakeValue();
  GpuRunStats stats = gpu.run_stats();
  run.frames_decoded = stats.frames_decoded;
  run.metrics_json = obs::Registry::Get().ToJson(start);
  return run;
}

PipelineRun RunSandPipeline(const BenchEnv& env, const ModelProfile& profile, int64_t epochs,
                            ServiceOptions options, std::shared_ptr<ObjectStore> dataset_override,
                            int64_t warmup_epochs) {
  const obs::Registry::Snapshot start = obs::Registry::Get().TakeSnapshot();
  PipelineRun run;
  if (options.total_epochs < warmup_epochs + epochs) {
    options = BenchServiceOptions(warmup_epochs + epochs);
    // Chunk size k equals the measured window: for this workload the k
    // sweep (bench_ablation_k_epochs) shows k~8 is where one chunk's
    // decode work fits under the training time of the previous chunk.
    options.k_epochs = static_cast<int>(epochs);
  }
  TaskConfig task = MakeTaskConfig(profile, env.meta.path, "bench");
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(512ULL * kMiB),
                                             std::make_shared<MemoryStore>(2ULL * kGiB));
  SandService service(dataset_override != nullptr ? dataset_override : env.dataset_store,
                      env.meta, cache, {task}, options);
  if (auto status = service.Start(); !status.ok()) {
    std::fprintf(stderr, "sand pipeline: %s\n", status.ToString().c_str());
    std::abort();
  }
  SandBatchSource source(service.fs(), "bench",
                         IterationsPerEpochFor(env.meta, task.sampling));
  GpuModel gpu;
  if (warmup_epochs > 0) {
    TrainRunOptions warmup;
    warmup.epochs = warmup_epochs;
    warmup.cpu_cores = kBenchCpuThreads;
    auto status = RunTraining(source, gpu, profile, warmup, nullptr);
    if (!status.ok()) {
      std::fprintf(stderr, "sand warmup: %s\n", status.status().ToString().c_str());
      std::abort();
    }
  }
  TrainRunOptions train;
  train.epochs = epochs;
  train.epoch_begin = warmup_epochs;
  train.cpu_cores = kBenchCpuThreads;
  auto metrics = RunTraining(source, gpu, profile, train, &service.cpu_meter());
  if (!metrics.ok()) {
    std::fprintf(stderr, "sand pipeline: %s\n", metrics.status().ToString().c_str());
    std::abort();
  }
  run.metrics = metrics.TakeValue();
  run.frames_decoded = service.stats().exec.frames_decoded;
  run.cache_hits = service.stats().exec.cache_hits;
  run.metrics_json = obs::Registry::Get().ToJson(start);
  return run;
}

Result<std::vector<uint8_t>> BuildOneBatch(const BenchEnv& env, const TaskConfig& task) {
  OnDemandCpuSource::Options options;
  options.num_threads = kBenchCpuThreads;
  options.prefetch = false;
  OnDemandCpuSource source(env.dataset_store, env.meta, task, options, nullptr);
  SAND_ASSIGN_OR_RETURN(SharedBytes batch, source.NextBatch(0, 0));
  return *batch;  // one-time setup copy; steady-state consumers use SharedBytes
}

PipelineRun RunIdealPipeline(const BenchEnv& env, const ModelProfile& profile, int64_t epochs) {
  const obs::Registry::Snapshot start = obs::Registry::Get().TakeSnapshot();
  PipelineRun run;
  TaskConfig task = MakeTaskConfig(profile, env.meta.path, "bench");
  auto batch = BuildOneBatch(env, task);
  if (!batch.ok()) {
    std::fprintf(stderr, "ideal pipeline: %s\n", batch.status().ToString().c_str());
    std::abort();
  }
  IdealSource source(batch.TakeValue(), IterationsPerEpochFor(env.meta, task.sampling));
  GpuModel gpu;
  TrainRunOptions train;
  train.epochs = epochs;
  train.cpu_cores = kBenchCpuThreads;
  auto metrics = RunTraining(source, gpu, profile, train, nullptr);
  if (!metrics.ok()) {
    std::abort();
  }
  run.metrics = metrics.TakeValue();
  run.metrics_json = obs::Registry::Get().ToJson(start);
  return run;
}

void PrintBenchHeader(const std::string& title, const std::string& paper_reference) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_reference.c_str());
  std::printf("================================================================\n");
}

void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

}  // namespace sand
