#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "ledger.h"
#include "probes.h"
#include "src/cluster/cluster_store.h"
#include "src/common/trace_context.h"
#include "src/common/units.h"
#include "src/config/pipeline_config.h"
#include "src/core/batch_format.h"
#include "src/core/sand_service.h"
#include "src/graph/view.h"
#include "src/net/sand_client.h"
#include "src/net/sand_server.h"
#include "src/obs/metrics.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"
#include "sysstat.h"

namespace perfbench {

using sand::kGiB;
using sand::kMiB;
using sand::Result;
using sand::SharedBytes;
using sand::Status;

namespace {

// Dataset and chunk geometry: 24 synthetic videos x 96 frames at 64x96,
// GOP 8, read as SlowFast clips (4 clips x 8 frames, resize 48x64 ->
// random crop 40x40 -> flip), k = 4 epochs per chunk.
constexpr int kVideos = 24;
constexpr int kFramesPerVideo = 96;
constexpr int kHeight = 64;
constexpr int kWidth = 96;
constexpr int kGop = 8;
constexpr int kEpochsPerChunk = 4;
constexpr int kColdChunks = 5;
constexpr const char* kTask = "train";
constexpr const char* kTenant = "perfbench";
// Request threads of every SandServer.
constexpr int kRequestThreads = 2;
// Setups per run of the pass workloads; setup_s is their median.
constexpr int kSetups = 5;
// cold_train rounds per run at the least (each round is one setup).
constexpr int kMinRounds = 3;
// Spans one traced window may keep; the window ends early near the cap.
constexpr size_t kSpanCapacity = 200000;
// budget_compressed: below the chunk's pruned working set.
constexpr uint64_t kTightBudget = 3 * kMiB;
constexpr uint64_t kAmpleBudget = 256 * kMiB;
// budget_compressed: epochs in its one chunk (more epochs average more of
// the planner's random draws per round) and passes per fresh-system round.
constexpr int kBudgetEpochs = 12;
// Which objects a tight budget prunes or evicts follows the planner's random
// draws so closely that the work per round varies ±18% across planner seeds;
// the planner seed is fixed here and --seed varies the videos.
constexpr uint64_t kBudgetPlannerSeed = 7;
constexpr int64_t kBudgetPasses = 1;

struct Env {
  std::shared_ptr<sand::MemoryStore> dataset;
  sand::DatasetMeta meta;
  sand::TaskConfig task;
  sand::BatchHeader shape;  // what every delivered batch must carry
  int64_t iterations_per_epoch = 0;
  uint64_t seed = 0;
};

Result<Env> MakeEnv(uint64_t seed) {
  Env env;
  env.seed = seed;
  env.dataset = std::make_shared<sand::MemoryStore>();
  sand::SyntheticDatasetOptions options;
  options.num_videos = kVideos;
  options.frames_per_video = kFramesPerVideo;
  options.height = kHeight;
  options.width = kWidth;
  options.gop_size = kGop;
  options.seed = seed;
  SAND_ASSIGN_OR_RETURN(env.meta, sand::BuildSyntheticDataset(*env.dataset, options));
  // The program gets its task the way a user writes it: as config text.
  sand::ModelProfile profile = sand::SlowFastProfile();
  SAND_ASSIGN_OR_RETURN(env.task, sand::ParseTaskConfigText(sand::MakeTaskConfigYaml(
                                      profile, env.meta.path, kTask)));
  env.shape.n_clips = static_cast<uint32_t>(profile.videos_per_batch * profile.samples_per_video);
  env.shape.frames_per_clip = static_cast<uint32_t>(profile.frames_per_video);
  env.shape.height = static_cast<uint32_t>(profile.crop_h);
  env.shape.width = static_cast<uint32_t>(profile.crop_w);
  env.shape.channels = 3;
  env.iterations_per_epoch = kVideos / profile.videos_per_batch;
  return env;
}

std::vector<std::string> BatchViews(const Env& env, int64_t epoch_begin, int64_t epoch_end) {
  std::vector<std::string> views;
  for (int64_t epoch = epoch_begin; epoch < epoch_end; ++epoch) {
    for (int64_t iter = 0; iter < env.iterations_per_epoch; ++iter) {
      views.push_back(sand::ViewPath::Batch(kTask, epoch, iter).Format());
    }
  }
  return views;
}

Status ValidateBatch(const SharedBytes& bytes, const sand::BatchHeader& expect) {
  if (bytes == nullptr) {
    return sand::DataLoss("empty batch");
  }
  SAND_ASSIGN_OR_RETURN(sand::BatchHeader header, sand::ParseBatchHeader(*bytes));
  if (header.n_clips != expect.n_clips || header.frames_per_clip != expect.frames_per_clip ||
      header.height != expect.height || header.width != expect.width ||
      header.channels != expect.channels) {
    return sand::DataLoss("batch shape differs from the workload geometry");
  }
  if (bytes->size() != sand::kBatchHeaderBytes + header.PixelBytes()) {
    return sand::DataLoss("batch size differs from its header");
  }
  return Status::Ok();
}

// --- Work counts -------------------------------------------------------------

enum CountId : size_t {
  kFramesDecoded,
  kAugOps,
  kCacheHits,
  kCacheStores,
  kDemandMaterializations,
  kEvictions,
  kSchedJobs,
  kSchedDemandJobs,
  kPeerGets,
  kCompressDecodes,
  kDecodeRejected,
  kNumCounts,
};
constexpr const char* kCountNames[kNumCounts] = {
    "frames_decoded",          "aug_ops",   "cache_hits", "cache_stores",
    "demand_materializations", "evictions", "sched_jobs", "sched_demand_jobs",
    "peer_gets",               "compress_decodes", "decode_pool_rejected"};
using Counts = std::array<uint64_t, kNumCounts>;

Counts Minus(const Counts& a, const Counts& b) {
  Counts out{};
  for (size_t i = 0; i < kNumCounts; ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

struct RegistryProbes {
  sand::obs::Counter* peer_hits;
  sand::obs::Counter* peer_misses;
  sand::obs::Counter* compress_decodes;
  sand::obs::Counter* encoded_raw;
  sand::obs::Counter* encoded;
  sand::obs::Histogram* encode_ns;
  sand::obs::Histogram* decode_ns;
  sand::obs::Histogram* job_latency_ns;

  static RegistryProbes& Get() {
    static RegistryProbes probes = [] {
      sand::obs::Registry& r = sand::obs::Registry::Get();
      return RegistryProbes{r.GetCounter("sand.cluster.peer_hits"),
                            r.GetCounter("sand.cluster.peer_misses"),
                            r.GetCounter("sand.compress.hits"),
                            r.GetCounter("sand.compress.encoded_raw_bytes"),
                            r.GetCounter("sand.compress.encoded_bytes"),
                            r.GetHistogram("sand.compress.encode_ns"),
                            r.GetHistogram("sand.compress.decode_ns"),
                            r.GetHistogram("sand.sched.job_latency_ns")};
    }();
    return probes;
  }
};

// --- One SAND node -------------------------------------------------------------

struct NodeOptions {
  sand::ServiceOptions service;
  uint64_t mem_bytes = 512 * kMiB;
  uint64_t disk_bytes = 2 * kGiB;
  // Serve the node's fs on a unix socket (and, with `shard`, the object verbs).
  std::string socket_path;
};

// Cache tiers, service and (optionally) a socket server, built in that order
// and torn down in reverse. With a SpanLog, every seam is decorated: the
// dataset store, both tiers, the peer store and the fs the node exposes.
class Node {
 public:
  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node() {
    if (server_ != nullptr) {
      server_->Stop();
    }
    if (service_ != nullptr) {
      service_->Shutdown();
    }
  }

  // `peer` (may be null) is attached as the cache's peer store; `shard`
  // (may be null) is served to peers over the object verbs. Neither is
  // decorated here.
  Status Build(const Env& env, const NodeOptions& options, SpanLog* log,
               std::shared_ptr<sand::ObjectStore> peer, sand::ObjectStore* shard) {
    mem_ = Decorate(std::make_shared<sand::MemoryStore>(options.mem_bytes), Layer::kMem, log);
    disk_ = Decorate(std::make_shared<sand::MemoryStore>(options.disk_bytes), Layer::kDisk, log);
    cache_ = std::make_shared<sand::TieredCache>(mem_, disk_);
    if (peer != nullptr) {
      cache_->SetPeerStore(Decorate(std::move(peer), Layer::kCluster, log));
    }
    service_ = std::make_unique<sand::SandService>(Decorate(env.dataset, Layer::kDataset, log),
                                                   env.meta, cache_,
                                                   std::vector<sand::TaskConfig>{env.task},
                                                   options.service);
    SAND_RETURN_IF_ERROR(service_->Start());
    api_ = &service_->fs();
    if (log != nullptr) {
      fs_probe_ = std::make_unique<TimedApi>(&service_->fs(), Layer::kVfs, log);
      api_ = fs_probe_.get();
    }
    if (!options.socket_path.empty()) {
      sand::net::SandServer::Options server;
      server.unix_path = options.socket_path;
      server.request_threads = kRequestThreads;
      server.object_store = shard;
      server_ = std::make_unique<sand::net::SandServer>(api_, server);
      SAND_RETURN_IF_ERROR(server_->Start());
    }
    return Status::Ok();
  }

  sand::SandService& service() { return *service_; }
  sand::TieredCache& cache() { return *cache_; }
  sand::SandApi& api() { return *api_; }
  uint64_t ResidentBytes() { return mem_->UsedBytes() + disk_->UsedBytes(); }
  uint64_t Refused() {
    if (server_ == nullptr) {
      return 0;
    }
    sand::net::ServerStats stats = server_->stats();
    return stats.rejected_backpressure + stats.rejected_quota;
  }

  // Adds the service's work counts (the process-wide ones come from
  // ProcessSample).
  void AddCounts(Counts& c) {
    sand::ServiceStats stats = service_->stats();
    sand::SchedulerStats sched = service_->scheduler_stats();
    c[kFramesDecoded] += stats.exec.frames_decoded;
    c[kAugOps] += stats.exec.aug_ops;
    c[kCacheHits] += stats.exec.cache_hits;
    c[kCacheStores] += stats.exec.cache_stores;
    c[kDemandMaterializations] += stats.demand_materializations;
    c[kEvictions] += stats.evictions;
    c[kSchedJobs] += sched.jobs_run;
    c[kSchedDemandJobs] += sched.demand_jobs_run;
    c[kDecodeRejected] += service_->decode_pool_stats().rejected;
  }

 private:
  static std::shared_ptr<sand::ObjectStore> Decorate(std::shared_ptr<sand::ObjectStore> store,
                                                     Layer layer, SpanLog* log) {
    if (log == nullptr) {
      return store;
    }
    return std::make_shared<TimedStore>(std::move(store), layer, log);
  }

  std::shared_ptr<sand::ObjectStore> mem_;
  std::shared_ptr<sand::ObjectStore> disk_;
  std::shared_ptr<sand::TieredCache> cache_;
  std::unique_ptr<sand::SandService> service_;
  std::unique_ptr<TimedApi> fs_probe_;
  sand::SandApi* api_ = nullptr;
  std::unique_ptr<sand::net::SandServer> server_;
};

// --- Window samples ------------------------------------------------------------

struct Sample {
  int64_t t_ns = 0;
  ProcUsage usage;
  HostCpu host;
  Counts counts{};
  int64_t decode_ns = 0;    // CpuMeter decode busy, all nodes
  int64_t augment_ns = 0;   // CpuMeter augment busy
  int64_t compress_ns = 0;  // CpuMeter compress busy + cache codec time
  uint64_t encoded_raw = 0;
  uint64_t encoded = 0;
  uint64_t refused = 0;
  uint64_t resident = 0;
};

// The process-wide part of a sample: registry counters (each workload runs
// in its own process, and inside a window only the serving node probes
// peers or decodes compressed objects), process CPU, host steal, time.
Sample ProcessSample() {
  Sample s;
  RegistryProbes& r = RegistryProbes::Get();
  s.counts[kPeerGets] = r.peer_hits->Value() + r.peer_misses->Value();
  s.counts[kCompressDecodes] = r.compress_decodes->Value();
  s.compress_ns = static_cast<int64_t>(r.encode_ns->Sum() + r.decode_ns->Sum());
  s.encoded_raw = r.encoded_raw->Value();
  s.encoded = r.encoded->Value();
  s.host = ReadHostCpu();
  s.usage = ReadProcUsage();
  s.t_ns = NowNs();
  return s;
}

// `serving` is the node whose work the window measures; CPU-meter busy time
// and refusals are summed over `nodes`.
Sample TakeSample(Node& serving, const std::vector<Node*>& nodes) {
  Sample s = ProcessSample();
  serving.AddCounts(s.counts);
  for (Node* node : nodes) {
    sand::CpuMeter& meter = node->service().cpu_meter();
    s.decode_ns += meter.Busy(sand::CpuWorkKind::kDecode);
    s.augment_ns += meter.Busy(sand::CpuWorkKind::kAugment);
    s.compress_ns += meter.Busy(sand::CpuWorkKind::kCompress);
    s.refused += node->Refused();
    s.resident += node->ResidentBytes();
  }
  return s;
}

// --- The closed-loop trainer ------------------------------------------------------

struct LoopStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t passes = 0;
  std::vector<double> latencies_us;
  std::vector<std::string> errors;  // the first few failures

  uint64_t delivered() const { return attempted - failed; }
  void Fail(const Status& status) {
    ++failed;
    if (errors.size() < 4) {
      errors.push_back(status.ToString());
    }
  }
  void Merge(const LoopStats& other) {
    attempted += other.attempted;
    failed += other.failed;
    passes += other.passes;
    latencies_us.insert(latencies_us.end(), other.latencies_us.begin(), other.latencies_us.end());
    for (const std::string& e : other.errors) {
      if (errors.size() < 4) {
        errors.push_back(e);
      }
    }
  }
};

// A trainer written against SandApi: open -> read -> validate -> close per
// batch view, `depth` reads in flight, pass after pass over `views` until
// `stop()` holds at a pass boundary or `max_passes` passes are done. There
// is no simulated GPU step. Refused and failed reads are counted, never
// retried. With a SpanLog, each batch runs under its own trace id inside a
// trainer root span.
class Trainer {
 public:
  // `after_batch` (may be empty) runs after each batch is closed, before
  // the next is sent.
  Trainer(sand::SandApi& api, const sand::BatchHeader& shape, SpanLog* log,
          std::atomic<uint64_t>* batch_seq, std::function<void()> after_batch = {})
      : api_(api),
        shape_(shape),
        log_(log),
        batch_seq_(batch_seq),
        after_batch_(std::move(after_batch)) {}

  LoopStats Run(const std::vector<std::string>& views, int depth, int64_t max_passes,
                const std::function<bool()>& stop) {
    LoopStats stats;
    std::deque<InFlight> window;
    size_t next = 0;
    bool issuing = !views.empty() && max_passes > 0;
    while (issuing || !window.empty()) {
      while (issuing && static_cast<int>(window.size()) < depth) {
        window.push_back(Send(views[next], depth));
        if (++next == views.size()) {
          next = 0;
          ++stats.passes;
          issuing = stats.passes < static_cast<uint64_t>(max_passes) && !stop();
        }
      }
      Complete(window.front(), stats);
      window.pop_front();
      if (after_batch_) {
        after_batch_();
      }
    }
    return stats;
  }

 private:
  struct InFlight {
    uint64_t trace_id = 0;
    int64_t start_ns = 0;
    int fd = -1;
    Status open_status;
    sand::Future<SharedBytes> read;
  };

  // Enters the batch's trace (a no-op for untraced runs, trace id 0).
  static void EnterTrace(std::optional<sand::ScopedTraceContext>& scope, uint64_t trace_id) {
    if (trace_id != 0) {
      sand::TraceContext ctx;
      ctx.trace_id = trace_id;
      scope.emplace(ctx);
    }
  }

  InFlight Send(const std::string& view, int depth) {
    InFlight op;
    op.trace_id = log_ != nullptr ? BatchTraceId(batch_seq_->fetch_add(1)) : 0;
    op.start_ns = NowNs();
    std::optional<sand::ScopedTraceContext> scope;
    EnterTrace(scope, op.trace_id);
    Result<int> fd = api_.Open(view);
    if (!fd.ok()) {
      op.open_status = fd.status();
      return op;
    }
    op.fd = *fd;
    op.read = depth > 1 ? api_.ReadAllSharedAsync(op.fd)
                        : sand::Future<SharedBytes>::FromResult(api_.ReadAllShared(op.fd));
    return op;
  }

  void Complete(InFlight& op, LoopStats& stats) {
    ++stats.attempted;
    Status status = op.open_status;
    uint64_t bytes = 0;
    if (op.fd >= 0) {
      Result<SharedBytes> batch = op.read.Get();
      status = batch.ok() ? ValidateBatch(*batch, shape_) : batch.status();
      bytes = batch.ok() ? (*batch)->size() : 0;
    }
    int64_t end_ns = NowNs();
    if (op.fd >= 0) {
      std::optional<sand::ScopedTraceContext> scope;
      EnterTrace(scope, op.trace_id);
      Status closed = api_.Close(op.fd);
      if (status.ok()) {
        status = closed;
      }
    }
    if (status.ok()) {
      stats.latencies_us.push_back(static_cast<double>(end_ns - op.start_ns) / 1e3);
    } else {
      stats.Fail(status);
    }
    if (log_ != nullptr) {
      Span root;
      root.trace_id = op.trace_id;
      root.start_ns = op.start_ns;
      root.end_ns = end_ns;
      root.bytes = bytes;
      root.layer = Layer::kTrainer;
      root.verb = Verb::kBatch;
      root.ok = status.ok();
      log_->Record(root);
    }
  }

  sand::SandApi& api_;
  const sand::BatchHeader shape_;
  SpanLog* log_;
  std::atomic<uint64_t>* batch_seq_;
  const std::function<void()> after_batch_;
};

// --- Shared measurement plumbing ------------------------------------------------------

// One measured window (or the sum of cold_train's round windows).
struct Window {
  double seconds = 0;
  uint64_t units = 0;  // passes or rounds
  LoopStats loop;
  Counts counts{};  // work done inside the window
  int64_t cpu_ns = 0;
  int64_t voluntary_ctx = 0;
  int64_t involuntary_ctx = 0;
  // Host ticks, so steal averages over merged windows by their length.
  uint64_t steal_ticks = 0;
  uint64_t host_ticks = 0;
  int64_t decode_ns = 0;
  int64_t augment_ns = 0;
  int64_t compress_ns = 0;
  uint64_t encoded_raw = 0;
  uint64_t encoded = 0;
  uint64_t refused = 0;
  uint64_t resident_end = 0;

  // Everything but the trainer's stats, from two samples.
  static Window Between(const Sample& begin, const Sample& end) {
    Window w;
    w.seconds = static_cast<double>(end.t_ns - begin.t_ns) / 1e9;
    w.counts = Minus(end.counts, begin.counts);
    w.cpu_ns = end.usage.cpu_ns - begin.usage.cpu_ns;
    w.voluntary_ctx = end.usage.voluntary_ctx - begin.usage.voluntary_ctx;
    w.involuntary_ctx = end.usage.involuntary_ctx - begin.usage.involuntary_ctx;
    w.steal_ticks = end.host.steal - begin.host.steal;
    w.host_ticks = end.host.total - begin.host.total;
    w.decode_ns = end.decode_ns - begin.decode_ns;
    w.augment_ns = end.augment_ns - begin.augment_ns;
    w.compress_ns = end.compress_ns - begin.compress_ns;
    w.encoded_raw = end.encoded_raw - begin.encoded_raw;
    w.encoded = end.encoded - begin.encoded;
    w.refused = end.refused - begin.refused;
    w.resident_end = end.resident;
    return w;
  }

  // Sums another window into this one (rounds).
  void Merge(const Window& other) {
    seconds += other.seconds;
    units += other.units;
    loop.Merge(other.loop);
    for (size_t i = 0; i < kNumCounts; ++i) {
      counts[i] += other.counts[i];
    }
    cpu_ns += other.cpu_ns;
    voluntary_ctx += other.voluntary_ctx;
    involuntary_ctx += other.involuntary_ctx;
    steal_ticks += other.steal_ticks;
    host_ticks += other.host_ticks;
    decode_ns += other.decode_ns;
    augment_ns += other.augment_ns;
    compress_ns += other.compress_ns;
    encoded_raw += other.encoded_raw;
    encoded += other.encoded;
    refused += other.refused;
    resident_end = other.resident_end;
  }

  double BatchesPerSecond() const {
    return SafeRatio(static_cast<double>(loop.delivered()), seconds);
  }
  double StealPercent() const {
    return 100.0 * SafeRatio(static_cast<double>(steal_ticks), static_cast<double>(host_ticks));
  }
  int64_t CtxSwitches() const { return voluntary_ctx + involuntary_ctx; }
};

// Which counts of a unit must repeat exactly.
struct WorkSpec {
  const char* unit;  // "pass" or "round"
  std::array<bool, kNumCounts> checked;
  // Serving from a filled cache: the window must decode and augment nothing.
  bool cache_only = false;
};

// Per-workload state the shared reporting needs.
struct Outcome {
  std::vector<double> setup_s;
  Counts unit_counts{};  // the reference unit
  Window window;         // untraced window (end-to-end metrics)
  Window traced;         // traced window (per-layer metrics)
  std::vector<Span> spans;
  uint64_t publish_puts = 0;
  sand::PruningReport pruning;
  double compression_ratio = 0;  // cumulative ratio of the serving cache's codec
  // Traced throughput over the same span of work as window's.
  double traced_batches_per_s = 0;
};

void CheckWindowCounts(const Window& window, const Counts& unit, const WorkSpec& spec,
                       const char* label, Report& report) {
  if (spec.cache_only && (window.counts[kFramesDecoded] != 0 || window.counts[kAugOps] != 0)) {
    report.Error(std::string(label) + " window decoded or augmented on a cache-only workload");
  }
  for (size_t i = 0; i < kNumCounts; ++i) {
    if (!spec.checked[i]) {
      continue;
    }
    uint64_t expected = unit[i] * window.units;
    if (window.counts[i] != expected) {
      std::ostringstream message;
      message << label << " window: " << kCountNames[i] << " = " << window.counts[i]
              << ", expected " << window.units << " " << spec.unit << "s x " << unit[i];
      report.Error(message.str());
    }
  }
}

void ReportLoopErrors(const LoopStats& loop, Report& report) {
  report.Attempts(loop.attempted, loop.failed);
  for (const std::string& e : loop.errors) {
    report.Error("read failed: " + e);
  }
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path, std::ios::trunc);
  out << "trace\tlayer\tverb\tstart_ns\tdur_ns\tbytes\tok\n";
  for (const Span& span : spans) {
    out << (span.trace_id & ~kBatchTraceTag) << (IsBatchTrace(span.trace_id) ? "" : "p") << '\t'
        << LayerName(span.layer) << '\t' << VerbName(span.verb) << '\t' << span.start_ns << '\t'
        << (span.end_ns - span.start_ns) << '\t' << span.bytes << '\t' << (span.ok ? 1 : 0)
        << '\n';
  }
}

void ReportEndToEnd(const Outcome& o, Report& report) {
  const Window& w = o.window;
  uint64_t batches = w.loop.delivered();
  report.Metric("batches_per_s", w.BatchesPerSecond(), "1/s");
  report.Metric("cpu_us_per_batch", PerBatch(static_cast<double>(w.cpu_ns) / 1e3, batches), "us");
  report.Metric("batch_p50_us", Percentile(w.loop.latencies_us, 0.50), "us");
  report.Metric("batch_p90_us", Percentile(w.loop.latencies_us, 0.90), "us");
  report.Metric("setup_s", Percentile(o.setup_s, 0.5), "s");
  report.Metric("peak_rss_mib", static_cast<double>(ReadProcUsage().max_rss_kib) / 1024.0, "MiB");
}

void ReportPerLayer(const Outcome& o, Report& report) {
  const Window& w = o.traced;
  const uint64_t batches = w.loop.delivered();
  Ledger ledger = BuildLedger(o.spans);
  auto per_batch = [&](double total) { return PerBatch(total, batches); };
  auto us = [](double ns) { return ns / 1e3; };
  auto p50_us = [&](Layer layer, Verb verb) {
    return us(Percentile(ledger.verb(layer, verb).durations_ns, 0.5));
  };
  const Counts& c = w.counts;

  report.Metric("codec.frames_decoded_per_batch", per_batch(c[kFramesDecoded]), "count");
  report.Metric("codec.decode_busy_us_per_batch", per_batch(us(w.decode_ns)), "us");
  const VerbTotals& dataset_get = ledger.verb(Layer::kDataset, Verb::kGet);
  report.Metric("storage.dataset.gets_per_batch", per_batch(dataset_get.calls), "count");
  report.Metric("storage.dataset.get_us_per_batch", per_batch(us(dataset_get.time_ns)), "us");
  report.Metric("tensor.aug_ops_per_batch", per_batch(c[kAugOps]), "count");
  report.Metric("tensor.augment_busy_us_per_batch", per_batch(us(w.augment_ns)), "us");
  report.Metric("compress.busy_us_per_batch", per_batch(us(w.compress_ns)), "us");
  report.Metric("compress.decoded_hits_per_batch", per_batch(c[kCompressDecodes]), "count");
  double window_ratio = SafeRatio(w.encoded_raw, w.encoded);
  report.Metric("compress.ratio", window_ratio > 0 ? window_ratio : o.compression_ratio, "1");

  const VerbTotals& mem_get = ledger.verb(Layer::kMem, Verb::kGet);
  const VerbTotals& mem_put = ledger.verb(Layer::kMem, Verb::kPut);
  report.Metric("storage.mem.gets_per_batch", per_batch(mem_get.calls), "count");
  report.Metric("storage.mem.hit_ratio", SafeRatio(mem_get.ok, mem_get.calls), "1");
  report.Metric("storage.mem.get_ns_p50", Percentile(mem_get.durations_ns, 0.5), "ns");
  report.Metric("storage.mem.puts_per_batch", per_batch(mem_put.calls), "count");
  report.Metric("storage.mem.put_us_per_batch", per_batch(us(mem_put.time_ns)), "us");
  const VerbTotals& disk_get = ledger.verb(Layer::kDisk, Verb::kGet);
  report.Metric("storage.disk.gets_per_batch", per_batch(disk_get.calls), "count");
  report.Metric("storage.disk.get_us_per_batch", per_batch(us(disk_get.time_ns)), "us");
  report.Metric("storage.disk.puts_per_batch",
                per_batch(ledger.verb(Layer::kDisk, Verb::kPut).calls), "count");
  report.Metric("storage.resident_mib", static_cast<double>(w.resident_end) / kMiB, "MiB");

  report.Metric("core.cache_hits_per_batch", per_batch(c[kCacheHits]), "count");
  report.Metric("core.cache_stores_per_batch", per_batch(c[kCacheStores]), "count");
  report.Metric("core.demand_materializations_per_batch", per_batch(c[kDemandMaterializations]),
                "count");
  report.Metric("core.evictions_per_batch", per_batch(c[kEvictions]), "count");
  report.Metric("pruning.cached_fraction",
                o.pruning.initial_bytes == 0
                    ? 1.0
                    : SafeRatio(o.pruning.final_bytes, o.pruning.initial_bytes),
                "1");
  report.Metric("pruning.estimated_recompute_ms", o.pruning.estimated_recompute_ns / 1e6, "ms");
  report.Metric("sched.jobs_per_batch", per_batch(c[kSchedJobs]), "count");
  report.Metric("sched.demand_jobs_per_batch", per_batch(c[kSchedDemandJobs]), "count");
  report.Metric("sched.job_p50_us",
                us(static_cast<double>(RegistryProbes::Get().job_latency_ns->Quantile(0.5))),
                "us");
  report.Metric("common.ctx_switches_per_batch", per_batch(w.CtxSwitches()), "count");
  report.Metric("common.decode_pool_rejected_per_batch", per_batch(c[kDecodeRejected]), "count");
  report.Metric("common.error_ratio", SafeRatio(w.loop.failed, w.loop.attempted), "1");

  report.Metric("vfs.open_us_p50", p50_us(Layer::kVfs, Verb::kOpen), "us");
  report.Metric("vfs.read_us_p50", p50_us(Layer::kVfs, Verb::kRead), "us");
  report.Metric("vfs.close_us_p50", p50_us(Layer::kVfs, Verb::kClose), "us");
  report.Metric("vfs.self_us_per_batch", per_batch(us(ledger.layer(Layer::kVfs).self_ns)), "us");
  const LayerTotals& client = ledger.layer(Layer::kClient);
  double wire_ns = client.time_ns == 0
                       ? 0.0
                       : static_cast<double>(client.time_ns - ledger.layer(Layer::kVfs).time_ns);
  report.Metric("net.wire_us_per_batch", per_batch(us(wire_ns)), "us");
  report.Metric("net.bytes_per_batch",
                per_batch(ledger.verb(Layer::kClient, Verb::kRead).bytes), "bytes");
  report.Metric("net.refused_per_batch", per_batch(w.refused), "count");

  const VerbTotals& peer_get = ledger.verb(Layer::kCluster, Verb::kGet);
  report.Metric("cluster.peer_gets_per_batch", per_batch(peer_get.calls), "count");
  report.Metric("cluster.peer_hit_ratio", SafeRatio(peer_get.ok, peer_get.calls), "1");
  report.Metric("cluster.peer_get_us_p50", p50_us(Layer::kCluster, Verb::kGet), "us");
  report.Metric("cluster.peer_bytes_per_batch", per_batch(peer_get.bytes), "bytes");
  report.Metric("cluster.publish_puts", static_cast<double>(o.publish_puts), "count");

  // The ledger: CPU the layers account for against process CPU. Codec,
  // augment and compress time come from the program's CPU meter and codec
  // histograms, the in-memory stores' time from their spans. Trainer, API
  // and peer-store spans are left out: they include blocking waits.
  double attributed = static_cast<double>(w.decode_ns + w.augment_ns + w.compress_ns);
  for (Layer layer : {Layer::kDataset, Layer::kMem, Layer::kDisk}) {
    attributed += static_cast<double>(ledger.layer(layer).self_ns);
  }
  report.Metric("ledger.cpu_us_per_batch", per_batch(us(w.cpu_ns)), "us");
  report.Metric("ledger.attributed_us_per_batch", per_batch(us(attributed)), "us");
  report.Metric("obs.unattributed_cpu_pct",
                UnattributedPercent(static_cast<double>(w.cpu_ns), attributed), "%");
  report.Metric("obs.trace_overhead_pct",
                OverheadPercent(o.window.BatchesPerSecond(), o.traced_batches_per_s), "%");
}

void ReportDiagnostics(const Window& w, const char* prefix, Report& report) {
  std::string p = prefix;
  report.Diagnostic(p + "seconds", w.seconds);
  report.Diagnostic(p + "units", static_cast<double>(w.units));
  report.Diagnostic(p + "batches", static_cast<double>(w.loop.delivered()));
  report.Diagnostic(p + "steal_pct", w.StealPercent());
  report.Diagnostic(p + "voluntary_ctx", static_cast<double>(w.voluntary_ctx));
  report.Diagnostic(p + "involuntary_ctx", static_cast<double>(w.involuntary_ctx));
  for (size_t i = 0; i < kNumCounts; ++i) {
    report.Diagnostic(p + "work." + kCountNames[i], static_cast<double>(w.counts[i]));
  }
}

// --- Systems read pass by pass: warm_remote, budget_compressed, peer_fetch -----------

// A built system ready for timed reads.
class PassSystem {
 public:
  virtual ~PassSystem() = default;
  // Trainer APIs; the window runs one trainer thread per API.
  virtual std::vector<sand::SandApi*> apis() = 0;
  virtual Node& serving() = 0;
  virtual std::vector<Node*> nodes() = 0;
  virtual int depth() const { return 1; }
  // Waits for the service's background work after every batch, so work the
  // read set off (async demotion) lands before the next read.
  virtual bool settle_each_batch() const { return false; }
  // Session fds opened on each trainer API, closed by CloseSessions.
  Status OpenSessions() {
    for (sand::SandApi* api : apis()) {
      SAND_ASSIGN_OR_RETURN(int fd, api->Open(std::string("/") + kTask));
      sessions_.emplace_back(api, fd);
    }
    return Status::Ok();
  }
  void CloseSessions() {
    for (auto& [api, fd] : sessions_) {
      (void)api->Close(fd);
    }
    sessions_.clear();
  }
  void WaitIdle() {
    for (Node* node : nodes()) {
      node->service().WaitForBackgroundWork();
    }
  }

 private:
  std::vector<std::pair<sand::SandApi*, int>> sessions_;
};

// Relative to the working directory: unix socket paths are limited to 107
// bytes, and a checkout's absolute path may be longer.
std::string SocketPath(const char* tag) {
  static std::atomic<int> counter{0};
  return "pb" + std::to_string(::getpid()) + tag + std::to_string(counter.fetch_add(1)) +
         ".sock";
}

sand::ServiceOptions BaseServiceOptions(const Env& env) {
  sand::ServiceOptions options;
  options.k_epochs = kEpochsPerChunk;
  options.total_epochs = kEpochsPerChunk;  // one chunk, re-read pass after pass
  options.seed = env.seed;
  options.storage_budget_bytes = kAmpleBudget;
  options.num_threads = 1;
  options.async_threads = 2;
  options.decode_threads = 2;
  return options;
}

// warm_remote: SandServer (2 request threads) over a one-scheduler-thread
// service whose single chunk is pre-materialized during setup; two
// SandClient connections, each with 2 reads in flight.
class WarmRemote : public PassSystem {
 public:
  Status Build(const Env& env, SpanLog* log) {
    NodeOptions options;
    options.service = BaseServiceOptions(env);
    options.socket_path = SocketPath("w");
    SAND_RETURN_IF_ERROR(node_.Build(env, options, log, nullptr, nullptr));
    node_.service().WaitForBackgroundWork();
    for (int i = 0; i < 2; ++i) {
      sand::net::SandClient::Options client;
      client.unix_path = options.socket_path;
      client.tenant = kTenant;
      SAND_ASSIGN_OR_RETURN(auto connected, sand::net::SandClient::Connect(client));
      clients_.push_back(std::move(connected));
      apis_.push_back(clients_.back().get());
      if (log != nullptr) {
        probes_.push_back(std::make_unique<TimedApi>(clients_.back().get(), Layer::kClient, log));
        apis_.back() = probes_.back().get();
      }
    }
    return OpenSessions();
  }
  ~WarmRemote() override { CloseSessions(); }

  std::vector<sand::SandApi*> apis() override { return apis_; }
  Node& serving() override { return node_; }
  std::vector<Node*> nodes() override { return {&node_}; }
  int depth() const override { return 2; }

 private:
  Node node_;
  std::vector<std::unique_ptr<sand::net::SandClient>> clients_;
  std::vector<std::unique_ptr<TimedApi>> probes_;
  std::vector<sand::SandApi*> apis_;
};

// budget_compressed: a storage budget well below the chunk's working set
// (kTightBudget against ~10.5 MiB of leaves), lossless compression on demote
// and on disk put, the memory tier a quarter of the budget, the lower tier
// the budget; pre-materialized during setup; one scheduler thread, one
// async thread, serial decode, and one trainer that waits for background
// work (async demotion) after every batch. With these pools the work of the
// first passes after setup repeats exactly; later passes drift, so each
// round starts from a fresh system. The chunk spans kBudgetEpochs epochs.
class BudgetCompressed : public PassSystem {
 public:
  Status Build(const Env& env, SpanLog* log) {
    NodeOptions options;
    options.service = BaseServiceOptions(env);
    options.service.k_epochs = kBudgetEpochs;
    options.service.total_epochs = kBudgetEpochs;
    options.service.seed = kBudgetPlannerSeed;
    options.service.storage_budget_bytes = kTightBudget;
    options.service.compression.enabled = true;
    options.service.compression.compress_on_disk_put = true;
    options.service.async_threads = 1;
    options.service.decode_threads = 0;
    options.mem_bytes = kTightBudget / 4;
    options.disk_bytes = kTightBudget;
    SAND_RETURN_IF_ERROR(node_.Build(env, options, log, nullptr, nullptr));
    node_.service().WaitForBackgroundWork();
    return OpenSessions();
  }
  ~BudgetCompressed() override { CloseSessions(); }

  std::vector<sand::SandApi*> apis() override { return {&node_.api()}; }
  Node& serving() override { return node_; }
  std::vector<Node*> nodes() override { return {&node_}; }
  bool settle_each_batch() const override { return true; }

 private:
  Node node_;
};

// peer_fetch: two in-process nodes, each a service plus a server on its own
// socket, with a ClusterStore ring over both. Node A pre-materializes the
// chunk and publishes every object to its ring owner; node B serves the
// trainer from the ring alone (its tiers hold nothing, so nothing is
// promoted and every leaf is a peer get).
class PeerFetch : public PassSystem {
 public:
  Status Build(const Env& env, SpanLog* log) {
    std::string socket_a = SocketPath("a");
    std::string socket_b = SocketPath("b");
    std::vector<sand::cluster::ClusterNodeOptions> members = {{"node-a", socket_a},
                                                              {"node-b", socket_b}};
    auto ring = [&](const std::shared_ptr<sand::MemoryStore>& shard, int self) {
      sand::cluster::ClusterStoreOptions options;
      options.nodes = members;
      options.self_index = self;
      options.tenant = kTenant;
      options.connections_per_peer = 2;
      return std::make_shared<sand::cluster::ClusterStore>(shard, options);
    };
    // B first: A's fill publishes into B's shard over B's server.
    NodeOptions b;
    b.service = BaseServiceOptions(env);
    b.service.pre_materialize = false;
    b.service.num_threads = 2;
    b.service.decode_threads = 0;
    b.mem_bytes = 0;
    b.disk_bytes = 0;
    b.socket_path = socket_b;
    SAND_RETURN_IF_ERROR(node_b_.Build(env, b, log, ring(shard_b_, 1), shard_b_.get()));
    NodeOptions a;
    a.service = BaseServiceOptions(env);
    a.service.num_threads = 2;
    a.socket_path = socket_a;
    SAND_RETURN_IF_ERROR(node_a_.Build(env, a, log, ring(shard_a_, 0), shard_a_.get()));
    node_a_.service().WaitForBackgroundWork();
    return OpenSessions();
  }
  ~PeerFetch() override { CloseSessions(); }

  // Two trainer threads keep two reads in flight, so the window is not
  // bound by the latency of one chain of thread handoffs.
  std::vector<sand::SandApi*> apis() override { return {&node_b_.api(), &node_b_.api()}; }
  Node& serving() override { return node_b_; }
  std::vector<Node*> nodes() override { return {&node_a_, &node_b_}; }

 private:
  // Shards outlive the nodes: their servers and rings point into them.
  std::shared_ptr<sand::MemoryStore> shard_a_ = std::make_shared<sand::MemoryStore>();
  std::shared_ptr<sand::MemoryStore> shard_b_ = std::make_shared<sand::MemoryStore>();
  Node node_b_;
  Node node_a_;
};

using SystemFactory = std::function<Result<std::unique_ptr<PassSystem>>(const Env&, SpanLog*)>;

template <typename System>
SystemFactory FactoryFor() {
  return [](const Env& env, SpanLog* log) -> Result<std::unique_ptr<PassSystem>> {
    auto system = std::make_unique<System>();
    SAND_RETURN_IF_ERROR(system->Build(env, log));
    return std::unique_ptr<PassSystem>(std::move(system));
  };
}

// Runs every trainer of `system` for passes over `views` until `stop`, one
// thread per trainer API, and samples the window around it.
Window RunPassWindow(PassSystem& system, const Env& env, const std::vector<std::string>& views,
                     int64_t max_passes, const std::function<bool()>& stop, SpanLog* log) {
  std::atomic<uint64_t> batch_seq{0};
  std::vector<sand::SandApi*> apis = system.apis();
  std::vector<LoopStats> results(apis.size());
  Sample begin = TakeSample(system.serving(), system.nodes());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < apis.size(); ++i) {
    threads.emplace_back([&, i] {
      std::function<void()> settle;
      if (system.settle_each_batch()) {
        settle = [&system] { system.WaitIdle(); };
      }
      Trainer trainer(*apis[i], env.shape, log, &batch_seq, settle);
      results[i] = trainer.Run(views, system.depth(), max_passes, stop);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  system.WaitIdle();
  Window window = Window::Between(begin, TakeSample(system.serving(), system.nodes()));
  for (const LoopStats& result : results) {
    window.loop.Merge(result);
  }
  window.units = window.loop.passes;
  return window;
}

// Setup repeated kSetups times (the last system is kept), one untimed
// reference pass for the per-pass work counts, then the timed window. A
// traced run sets up once per half: untraced, then decorated.
Status RunPassWorkload(const Env& env, const RunOptions& run, const SystemFactory& factory,
                       const WorkSpec& spec, Outcome& o, Report& report) {
  const std::vector<std::string> views = BatchViews(env, 0, kEpochsPerChunk);
  auto reference = [&](PassSystem& system, const char* label) {
    Window ref = RunPassWindow(system, env, views, 1, [] { return true; }, nullptr);
    ReportLoopErrors(ref.loop, report);
    if (label != nullptr) {
      CheckWindowCounts(ref, o.unit_counts, spec, label, report);
      return;
    }
    // One pass per trainer thread.
    for (size_t i = 0; i < kNumCounts; ++i) {
      o.unit_counts[i] = ref.counts[i] / ref.units;
      if (spec.checked[i] && ref.counts[i] % ref.units != 0) {
        report.Error(std::string("reference passes differ in ") + kCountNames[i]);
      }
    }
  };
  auto window = [&](PassSystem& system, double seconds, SpanLog* log, const char* label) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    Window w = RunPassWindow(
        system, env, views, INT64_MAX,
        [&] { return NowNs() >= deadline || (log != nullptr && log->NearlyFull()); }, log);
    ReportLoopErrors(w.loop, report);
    CheckWindowCounts(w, o.unit_counts, spec, label, report);
    sand::TieredCache& cache = system.serving().cache();
    o.pruning = system.serving().service().last_pruning_report();
    o.compression_ratio = cache.compression_enabled() ? cache.CompressionRatio() : 0.0;
    return w;
  };

  const double window_s = run.trace ? run.seconds / 2 : run.seconds;
  std::unique_ptr<PassSystem> system;
  for (int i = 0; i < (run.trace ? 1 : kSetups); ++i) {
    system.reset();
    int64_t t0 = NowNs();
    SAND_ASSIGN_OR_RETURN(system, factory(env, nullptr));
    o.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  reference(*system, nullptr);
  o.window = window(*system, window_s, nullptr, "untraced");
  system.reset();
  if (!run.trace) {
    return Status::Ok();
  }

  SpanLog log(kSpanCapacity);
  SAND_ASSIGN_OR_RETURN(system, factory(env, &log));
  for (const Span& span : log.Take()) {
    o.publish_puts += span.layer == Layer::kCluster && span.verb == Verb::kPut ? 1 : 0;
  }
  reference(*system, "traced reference");
  (void)log.Take();
  RegistryProbes::Get().job_latency_ns->Reset();
  o.traced = window(*system, window_s, &log, "traced");
  o.traced_batches_per_s = o.traced.BatchesPerSecond();
  if (log.dropped() > 0) {
    report.Error("span log overflowed");
  }
  o.spans = log.Take();
  system.reset();  // its servers record into `log` until they stop
  return Status::Ok();
}

// --- Round workloads: budget_compressed, cold_train ---------------------------------

// One fresh-system round.
struct Round {
  double setup_s = 0;
  Window timed;  // the end-to-end window
  Window unit;   // the work that must repeat; reported per layer when traced
};
using RoundFn = std::function<Result<Round>(SpanLog*)>;

// Runs rounds until the window's time is up (at least kMinRounds), each
// checked against the first. A traced run then repeats them decorated.
Status RunRounds(const RunOptions& run, const RoundFn& round, const WorkSpec& spec, Outcome& o,
                 Report& report) {
  bool have_reference = false;
  auto next = [&](SpanLog* log, const char* label) -> Result<Round> {
    SAND_ASSIGN_OR_RETURN(Round r, round(log));
    r.unit.units = 1;
    ReportLoopErrors(r.unit.loop, report);
    if (!have_reference) {
      o.unit_counts = r.unit.counts;
      have_reference = true;
    }
    CheckWindowCounts(r.unit, o.unit_counts, spec, label, report);
    return r;
  };

  const double window_s = run.trace ? run.seconds / 2 : run.seconds;
  int64_t deadline = NowNs() + static_cast<int64_t>(window_s * 1e9);
  for (int rounds = 0; rounds < kMinRounds || NowNs() < deadline; ++rounds) {
    SAND_ASSIGN_OR_RETURN(Round r, next(nullptr, "untraced round"));
    o.setup_s.push_back(r.setup_s);
    o.window.Merge(r.timed);
  }
  if (!run.trace) {
    return Status::Ok();
  }
  SpanLog log(kSpanCapacity);
  Window traced_timed;
  RegistryProbes::Get().job_latency_ns->Reset();
  deadline = NowNs() + static_cast<int64_t>(window_s * 1e9);
  for (int rounds = 0; rounds < 1 || (NowNs() < deadline && o.spans.size() < kSpanCapacity / 2);
       ++rounds) {
    SAND_ASSIGN_OR_RETURN(Round r, next(&log, "traced round"));
    o.traced.Merge(r.unit);
    traced_timed.Merge(r.timed);
    if (log.dropped() > 0) {
      report.Error("span log overflowed");
    }
    std::vector<Span> spans = log.Take();
    o.spans.insert(o.spans.end(), spans.begin(), spans.end());
  }
  o.traced_batches_per_s = traced_timed.BatchesPerSecond();
  return Status::Ok();
}

// budget_compressed: a fresh system (setup ends with pre-materialization
// done), then `passes` passes over its chunk. The passes are both the timed
// window and the unit; setup's spans are dropped.
RoundFn BudgetRound(const Env& env, Outcome& o) {
  return [&env, &o](SpanLog* log) -> Result<Round> {
    const std::vector<std::string> views = BatchViews(env, 0, kBudgetEpochs);
    Round r;
    const int64_t t0 = NowNs();
    SAND_ASSIGN_OR_RETURN(std::unique_ptr<PassSystem> system,
                          FactoryFor<BudgetCompressed>()(env, log));
    r.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (log != nullptr) {
      (void)log->Take();
    }
    r.timed = RunPassWindow(*system, env, views, kBudgetPasses, [] { return false; }, log);
    r.unit = r.timed;
    sand::TieredCache& cache = system->serving().cache();
    o.pruning = system->serving().service().last_pruning_report();
    o.compression_ratio = cache.CompressionRatio();
    return r;
  };
}

// cold_train: one fresh in-process service per round, pre-materialization
// on, an ample budget, 3 scheduler and 3 decode threads, one trainer over
// kColdChunks chunks. Setup runs through the first epoch, which touches
// every video; the timed window is the rest of the round. Who materializes
// a video (pre-materialization or the demand path) is a race, so the unit
// is the whole round, construction to idle: only then do its counts repeat.
RoundFn ColdRound(const Env& env, Outcome& o) {
  return [&env, &o](SpanLog* log) -> Result<Round> {
    const std::vector<std::string> views =
        BatchViews(env, 0, kEpochsPerChunk * kColdChunks);
    NodeOptions options;
    options.service = BaseServiceOptions(env);
    options.service.total_epochs = kEpochsPerChunk * kColdChunks;
    options.service.num_threads = 3;
    options.service.decode_threads = 3;
    std::atomic<uint64_t> batch_seq{0};
    auto never = [] { return false; };

    Round r;
    Node node;
    const std::vector<Node*> nodes = {&node};
    // A fresh service counts from zero; only the process-wide part is read.
    const Sample start = ProcessSample();
    SAND_RETURN_IF_ERROR(node.Build(env, options, log, nullptr, nullptr));
    SAND_ASSIGN_OR_RETURN(int session, node.api().Open(std::string("/") + kTask));
    Trainer trainer(node.api(), env.shape, log, &batch_seq);
    const auto first_epoch_end = views.begin() + env.iterations_per_epoch;
    LoopStats setup_loop =
        trainer.Run(std::vector<std::string>(views.begin(), first_epoch_end), 1, 1, never);
    r.setup_s = static_cast<double>(NowNs() - start.t_ns) / 1e9;

    const Sample begin = TakeSample(node, nodes);
    LoopStats timed_loop =
        trainer.Run(std::vector<std::string>(first_epoch_end, views.end()), 1, 1, never);
    r.timed = Window::Between(begin, TakeSample(node, nodes));
    r.timed.loop = timed_loop;

    (void)node.api().Close(session);
    node.service().WaitForBackgroundWork();
    r.unit = Window::Between(start, TakeSample(node, nodes));
    r.unit.loop = setup_loop;
    r.unit.loop.Merge(timed_loop);
    o.pruning = node.service().last_pruning_report();
    return r;
  };
}

// The shared tail of every workload: the metrics the run mode asks for, the
// diagnostics, and the reference unit's work counts.
void ReportOutcome(const Outcome& o, const WorkSpec& spec, const RunOptions& run,
                   Report& report) {
  if (run.trace) {
    WriteSpans(o.spans, run.trace_out);
    ReportPerLayer(o, report);
    ReportDiagnostics(o.traced, "traced.", report);
  } else {
    ReportEndToEnd(o, report);
  }
  ReportDiagnostics(o.window, "", report);
  for (size_t i = 0; i < kNumCounts; ++i) {
    report.Work(kCountNames[i], o.unit_counts[i], spec.checked[i]);
  }
  report.Diagnostic("pruning.initial_mib", static_cast<double>(o.pruning.initial_bytes) / kMiB);
  report.Diagnostic("pruning.final_mib", static_cast<double>(o.pruning.final_bytes) / kMiB);
  report.Diagnostic("resident_mib", static_cast<double>(o.window.resident_end) / kMiB);
  if (!o.setup_s.empty()) {
    report.Diagnostic("setup_s_min", *std::min_element(o.setup_s.begin(), o.setup_s.end()));
    report.Diagnostic("setup_s_max", *std::max_element(o.setup_s.begin(), o.setup_s.end()));
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

void Report::Diagnostic(const std::string& name, double value) {
  diagnostics_.emplace_back(name, value);
}

void Report::Work(const std::string& name, uint64_t value, bool checked) {
  work_.emplace_back(name, std::make_pair(value, checked));
}

void Report::Error(const std::string& message) {
  if (errors_.size() < 16) {
    errors_.push_back(message);
  }
}

std::string Report::ToJson(const RunOptions& options) const {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(options.workload) << ", \"seed\": " << options.seed
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonString(errors_[i]);
  }
  out << "], \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonString(metrics_[i].first) << ": {\"value\": "
        << JsonNumber(metrics_[i].second.first)
        << ", \"unit\": " << JsonString(metrics_[i].second.second) << "}";
  }
  out << "}, \"work\": {";
  for (size_t i = 0; i < work_.size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonString(work_[i].first) << ": {\"value\": "
        << work_[i].second.first << ", \"checked\": " << (work_[i].second.second ? "true" : "false")
        << "}";
  }
  out << "}, \"diagnostics\": {";
  for (size_t i = 0; i < diagnostics_.size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonString(diagnostics_[i].first) << ": "
        << JsonNumber(diagnostics_[i].second);
  }
  out << "}}";
  return out.str();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cold_train", "warm_remote",
                                                 "budget_compressed", "peer_fetch"};
  return names;
}

bool RunWorkload(const RunOptions& options, Report& report) {
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return false;
  }
  // The dataset is generated before any clock starts.
  Result<Env> env = MakeEnv(options.seed);
  if (!env.ok()) {
    report.Error("dataset: " + env.status().ToString());
    return true;
  }
  Outcome outcome;
  Status status;
  WorkSpec spec{"pass", {}};
  if (options.workload == "cold_train") {
    // Who materializes a video (pre-materialization or the demand path)
    // is a race, so only the work itself repeats, not the cache traffic.
    spec.unit = "round";
    spec.checked[kFramesDecoded] = spec.checked[kAugOps] = spec.checked[kCacheStores] = true;
    status = RunRounds(options, ColdRound(*env, outcome), spec, outcome, report);
  } else {
    // Every count of a pass repeats except decode-pool saturation (timing).
    spec.checked.fill(true);
    spec.checked[kDecodeRejected] = false;
    if (options.workload == "budget_compressed") {
      spec.unit = "round";
      status = RunRounds(options, BudgetRound(*env, outcome), spec, outcome, report);
    } else {
      spec.cache_only = true;
      SystemFactory factory = options.workload == "warm_remote" ? FactoryFor<WarmRemote>()
                                                                : FactoryFor<PeerFetch>();
      status = RunPassWorkload(*env, options, factory, spec, outcome, report);
    }
  }
  if (status.ok()) {
    ReportOutcome(outcome, spec, options, report);
  } else {
    report.Error(options.workload + ": " + status.ToString());
  }
  return true;
}

}  // namespace perfbench
