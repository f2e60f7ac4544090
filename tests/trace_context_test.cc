// Tests for request-scoped causal tracing (DESIGN.md §12): TraceContext
// propagation through spans, WorkerPool hand-off, Future continuations,
// and the end-to-end SandService path — a demand read must produce one
// connected multi-thread trace.
//
// Run under TSan (tools/check_tsan.sh): propagation crosses threads at
// every boundary exercised here.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/future.h"
#include "src/common/trace_context.h"
#include "src/common/worker_pool.h"
#include "src/core/sand_service.h"
#include "src/obs/attribution.h"
#include "src/obs/trace.h"
#include "src/vfs/sand_fs.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"

namespace sand {
namespace {

using obs::TraceEvent;
using obs::Tracer;

std::vector<TraceEvent> SpansNamed(const std::vector<TraceEvent>& events,
                                   const std::string& name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (name == e.name) {
      out.push_back(e);
    }
  }
  return out;
}

// --- span nesting on one thread ----------------------------------------------

TEST(TraceContextTest, NestedSpansLinkParentChild) {
  Tracer::Get().Clear();
  {
    SAND_SPAN("tc_outer");
    SAND_SPAN("tc_inner");
  }
  auto events = Tracer::Get().Snapshot();
  auto outer = SpansNamed(events, "tc_outer");
  auto inner = SpansNamed(events, "tc_inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_NE(outer[0].trace_id, 0u);
  EXPECT_EQ(inner[0].trace_id, outer[0].trace_id);
  EXPECT_EQ(inner[0].parent_span_id, outer[0].span_id);
  // The outer span opened with no active context: it is the trace root.
  EXPECT_EQ(outer[0].parent_span_id, 0u);
}

TEST(TraceContextTest, BeginRequestContextAttributesSpans) {
  Tracer::Get().Clear();
  uint32_t job = obs::JobRegistry::Get().Intern("tc-job");
  {
    ScopedTraceContext scope(BeginRequestContext(job, RequestClass::kDemand));
    SAND_SPAN("tc_attributed");
  }
  auto spans = SpansNamed(Tracer::Get().Snapshot(), "tc_attributed");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].job_id, job);
  EXPECT_EQ(spans[0].request_class, RequestClass::kDemand);
  EXPECT_EQ(obs::JobRegistry::Get().NameOf(spans[0].job_id), "tc-job");
}

// --- WorkerPool hand-off -----------------------------------------------------

TEST(TraceContextTest, WorkerPoolTaskParentsUnderSubmitter) {
  Tracer::Get().Clear();
  WorkerPool::Options options;
  options.num_threads = 2;
  options.max_queued = 16;
  WorkerPool pool(options);
  {
    ScopedTraceContext scope(BeginRequestContext(0, RequestClass::kDemand));
    SAND_SPAN("tc_submit");
    ASSERT_TRUE(pool.TrySubmit([] { SAND_SPAN("tc_pool_side"); }));
    pool.WaitIdle();
  }
  pool.Shutdown();
  auto events = Tracer::Get().Snapshot();
  auto submit = SpansNamed(events, "tc_submit");
  auto pool_side = SpansNamed(events, "tc_pool_side");
  ASSERT_EQ(submit.size(), 1u);
  ASSERT_EQ(pool_side.size(), 1u);
  EXPECT_EQ(pool_side[0].trace_id, submit[0].trace_id);
  EXPECT_EQ(pool_side[0].parent_span_id, submit[0].span_id);
}

TEST(TraceContextTest, WorkerPoolRestoresWorkerContextBetweenTasks) {
  Tracer::Get().Clear();
  WorkerPool::Options options;
  options.num_threads = 1;  // both tasks run on the same worker, in order
  options.max_queued = 16;
  WorkerPool pool(options);
  {
    ScopedTraceContext scope(BeginRequestContext(0, RequestClass::kDemand));
    SAND_SPAN("tc_ctx_submit");
    ASSERT_TRUE(pool.TrySubmit([] { SAND_SPAN("tc_task_with_ctx"); }));
  }
  pool.WaitIdle();
  // Submitted with no active context: must not inherit the previous
  // task's restored-and-discarded context.
  ASSERT_TRUE(pool.TrySubmit([] { SAND_SPAN("tc_task_without_ctx"); }));
  pool.WaitIdle();
  pool.Shutdown();
  auto events = Tracer::Get().Snapshot();
  auto with = SpansNamed(events, "tc_task_with_ctx");
  auto without = SpansNamed(events, "tc_task_without_ctx");
  ASSERT_EQ(with.size(), 1u);
  ASSERT_EQ(without.size(), 1u);
  EXPECT_NE(without[0].trace_id, with[0].trace_id);
  EXPECT_EQ(without[0].parent_span_id, 0u);
}

// --- Future continuations ----------------------------------------------------

TEST(TraceContextTest, FutureContinuationRunsInRegistrantContext) {
  Tracer::Get().Clear();
  Promise<int> promise;
  Future<int> future = promise.future();
  uint64_t registrant_trace = 0;
  {
    ScopedTraceContext scope(BeginRequestContext(0, RequestClass::kDemand));
    SAND_SPAN("tc_register");
    registrant_trace = CurrentTraceContext().trace_id;
    future.OnReady([](const Result<int>&) { SAND_SPAN("tc_continuation"); });
  }
  // Resolve from a foreign thread with its own unrelated context.
  std::thread setter([&promise] {
    ScopedTraceContext scope(BeginRequestContext(0, RequestClass::kMaintenance));
    promise.Set(7);
  });
  setter.join();
  auto events = Tracer::Get().Snapshot();
  auto reg = SpansNamed(events, "tc_register");
  auto cont = SpansNamed(events, "tc_continuation");
  ASSERT_EQ(reg.size(), 1u);
  ASSERT_EQ(cont.size(), 1u);
  EXPECT_EQ(cont[0].trace_id, registrant_trace);
  EXPECT_EQ(cont[0].parent_span_id, reg[0].span_id);
  EXPECT_EQ(cont[0].request_class, RequestClass::kDemand);
}

// --- end-to-end through SandService ------------------------------------------

struct ServiceRig {
  std::shared_ptr<MemoryStore> dataset_store;
  DatasetMeta meta;
  std::shared_ptr<TieredCache> cache;
  std::unique_ptr<SandService> service;
};

ServiceOptions DemandOptions() {
  ServiceOptions options;
  options.k_epochs = 2;
  options.total_epochs = 4;
  options.pre_materialize = false;
  // FIFO pops (the Fig. 18 ablation) leave every part of a read's RunGroup
  // to the scheduler's workers, so a demand read's flame crosses threads on
  // every run; with priorities the reading thread may run every part itself.
  options.enable_scheduling = false;
  options.num_threads = 2;
  options.storage_budget_bytes = 64ULL << 20;
  return options;
}

ServiceRig MakeServiceRig(ServiceOptions options) {
  ServiceRig rig;
  rig.dataset_store = std::make_shared<MemoryStore>();
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 4;
  dataset.frames_per_video = 24;
  dataset.height = 24;
  dataset.width = 32;
  dataset.gop_size = 4;
  dataset.seed = 77;
  auto meta = BuildSyntheticDataset(*rig.dataset_store, dataset);
  EXPECT_TRUE(meta.ok()) << meta.status().ToString();
  rig.meta = meta.TakeValue();
  rig.cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                            std::make_shared<MemoryStore>(256ULL << 20));
  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 3;
  profile.frame_stride = 2;
  profile.resize_h = 20;
  profile.resize_w = 28;
  profile.crop_h = 16;
  profile.crop_w = 16;
  std::vector<TaskConfig> tasks = {MakeTaskConfig(profile, rig.meta.path, "train")};
  rig.service = std::make_unique<SandService>(rig.dataset_store, rig.meta, rig.cache,
                                              std::move(tasks), options);
  EXPECT_TRUE(rig.service->Start().ok());
  return rig;
}

Result<SharedBytes> ReadView(SandFs& fs, const std::string& path) {
  auto fd = fs.Open(path);
  if (!fd.ok()) {
    return fd.status();
  }
  auto bytes = fs.ReadAllShared(*fd);
  Status close = fs.Close(*fd);
  if (bytes.ok() && !close.ok()) {
    return close;
  }
  return bytes;
}

TEST(TraceContextTest, DemandReadYieldsOneConnectedMultiThreadTrace) {
  ServiceRig rig = MakeServiceRig(DemandOptions());
  SandFs& fs = rig.service->fs();
  Tracer::Get().Clear();
  auto session = fs.Open("/train");
  ASSERT_TRUE(session.ok());
  auto bytes = ReadView(fs, "/train/0/0/view");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_TRUE(fs.Close(*session).ok());
  rig.service->WaitForBackgroundWork();
  rig.service->Shutdown();

  auto events = Tracer::Get().Snapshot();
  auto roots = SpansNamed(events, "fs_ensure_data");
  ASSERT_FALSE(roots.empty());
  uint64_t trace = roots[0].trace_id;
  ASSERT_NE(trace, 0u);

  // Collect the demand read's whole flame and check causal connectivity:
  // every non-root span's parent is another recorded span of the trace.
  std::vector<TraceEvent> flame;
  std::set<uint64_t> span_ids;
  std::set<uint32_t> tids;
  for (const TraceEvent& e : events) {
    if (e.trace_id == trace) {
      flame.push_back(e);
      span_ids.insert(e.span_id);
      tids.insert(e.tid);
    }
  }
  EXPECT_GE(flame.size(), 4u) << "demand read should cross fs -> sched -> decode";
  EXPECT_GE(tids.size(), 2u) << "the flame must span threads";
  size_t root_count = 0;
  for (const TraceEvent& e : flame) {
    if (e.parent_span_id == 0) {
      ++root_count;
      continue;
    }
    EXPECT_TRUE(span_ids.count(e.parent_span_id))
        << e.name << " parent " << e.parent_span_id << " not in trace";
    EXPECT_EQ(e.request_class, RequestClass::kDemand);
    EXPECT_EQ(obs::JobRegistry::Get().NameOf(e.job_id), "train");
  }
  EXPECT_EQ(root_count, 1u) << "one connected flame, not a forest";
  // The read materializes on the thread that issued it.
  auto assemble = SpansNamed(flame, "batch_assemble");
  ASSERT_EQ(assemble.size(), 1u);
  EXPECT_EQ(assemble[0].tid, roots[0].tid);
}

}  // namespace
}  // namespace sand
