// Tests for the §5.5 extension machinery: config dumping (round trip),
// metadata checkpointing + recovery, graph inspection, out-of-process
// custom ops, and cost-model calibration.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include "src/common/rng.h"
#include "src/config/config_dump.h"
#include "src/core/checkpoint.h"
#include "src/core/rpc_ops.h"
#include "src/core/sand_service.h"
#include "src/graph/inspect.h"
#include "src/workloads/calibrate.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"
#include "tests/allocation_probe.h"

namespace sand {
namespace {

// --- Config dump round trip --------------------------------------------------

TaskConfig RichConfig() {
  TaskConfig config = MakeTaskConfig(HdVilaProfile(), "/data/videos", "rich");
  AugStage conditional;
  conditional.name = "warmup";
  conditional.type = BranchType::kConditional;
  conditional.inputs = {config.augmentation.back().outputs[0]};
  conditional.outputs = {"cond_out"};
  BranchOption late;
  late.condition = *ParseCondition("iteration > 100");
  AugOp invert;
  invert.kind = OpKind::kInvert;
  late.ops.push_back(invert);
  BranchOption otherwise;
  otherwise.condition = *ParseCondition("else");
  conditional.branches = {late, otherwise};
  config.augmentation.push_back(conditional);

  AugStage random;
  random.name = "stochastic";
  random.type = BranchType::kRandom;
  random.inputs = {"cond_out"};
  random.outputs = {"rand_out"};
  BranchOption blur_branch;
  blur_branch.prob = 0.25;
  AugOp blur;
  blur.kind = OpKind::kBlur;
  blur.kernel = 3;
  blur_branch.ops.push_back(blur);
  BranchOption pass;
  pass.prob = 0.75;
  random.branches = {blur_branch, pass};
  config.augmentation.push_back(random);
  return config;
}

bool OpsEqual(const std::vector<AugOp>& a, const std::vector<AugOp>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Signature() != b[i].Signature()) {
      return false;
    }
  }
  return true;
}

TEST(ConfigDumpTest, RoundTripsRichConfig) {
  TaskConfig original = RichConfig();
  std::string yaml = DumpTaskConfigYaml(original);
  auto restored = ParseTaskConfigText(yaml);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString() << "\n" << yaml;
  EXPECT_EQ(restored->tag, original.tag);
  EXPECT_EQ(restored->dataset_path, original.dataset_path);
  EXPECT_EQ(restored->sampling.videos_per_batch, original.sampling.videos_per_batch);
  EXPECT_EQ(restored->sampling.frames_per_video, original.sampling.frames_per_video);
  EXPECT_EQ(restored->sampling.frame_stride, original.sampling.frame_stride);
  ASSERT_EQ(restored->augmentation.size(), original.augmentation.size());
  for (size_t s = 0; s < original.augmentation.size(); ++s) {
    const AugStage& a = original.augmentation[s];
    const AugStage& b = restored->augmentation[s];
    EXPECT_EQ(a.type, b.type) << "stage " << s;
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_TRUE(OpsEqual(a.ops, b.ops)) << "stage " << s;
    ASSERT_EQ(a.branches.size(), b.branches.size());
    for (size_t o = 0; o < a.branches.size(); ++o) {
      EXPECT_TRUE(OpsEqual(a.branches[o].ops, b.branches[o].ops));
      EXPECT_DOUBLE_EQ(a.branches[o].prob, b.branches[o].prob);
      EXPECT_EQ(FormatCondition(a.branches[o].condition),
                FormatCondition(b.branches[o].condition));
    }
  }
}

TEST(ConfigDumpTest, RoundTripPreservesPlans) {
  // The strongest property: plans built from the original and round-tripped
  // configs are bit-identical.
  auto store = std::make_shared<MemoryStore>();
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 3;
  dataset.frames_per_video = 32;
  dataset.height = 24;
  dataset.width = 32;
  dataset.path = "/data/videos";
  auto meta = BuildSyntheticDataset(*store, dataset);
  ASSERT_TRUE(meta.ok());
  TaskConfig original = RichConfig();
  auto restored = ParseTaskConfigText(DumpTaskConfigYaml(original));
  ASSERT_TRUE(restored.ok());
  PlannerOptions options;
  options.k_epochs = 2;
  std::vector<TaskConfig> a = {original};
  std::vector<TaskConfig> b = {*restored};
  auto plan_a = BuildMaterializationPlan(*meta, a, 0, options);
  auto plan_b = BuildMaterializationPlan(*meta, b, 0, options);
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  ASSERT_EQ(plan_a->videos.size(), plan_b->videos.size());
  for (size_t v = 0; v < plan_a->videos.size(); ++v) {
    ASSERT_EQ(plan_a->videos[v].nodes.size(), plan_b->videos[v].nodes.size()) << "video " << v;
    for (size_t n = 0; n < plan_a->videos[v].nodes.size(); ++n) {
      EXPECT_EQ(plan_a->videos[v].nodes[n].key, plan_b->videos[v].nodes[n].key);
    }
  }
}

TEST(ConfigDumpTest, FormatCondition) {
  EXPECT_EQ(FormatCondition(*ParseCondition("iteration > 10")), "iteration > 10");
  EXPECT_EQ(FormatCondition(*ParseCondition("epoch <= 5")), "epoch <= 5");
  EXPECT_EQ(FormatCondition(*ParseCondition("else")), "else");
}

// Generative sweep: random (valid) configs round-trip through the dumper
// and produce identical plans.
class ConfigRoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConfigRoundTripSweep, DumpParsePlanIdentical) {
  Rng rng(GetParam());
  TaskConfig config;
  config.tag = "gen";
  config.dataset_path = "/gen/data";
  config.sampling.videos_per_batch = 1 + static_cast<int>(rng.NextBounded(3));
  config.sampling.frames_per_video = 2 + static_cast<int>(rng.NextBounded(4));
  config.sampling.frame_stride = 1 + static_cast<int>(rng.NextBounded(3));
  config.sampling.samples_per_video = 1 + static_cast<int>(rng.NextBounded(2));

  int stages = 1 + static_cast<int>(rng.NextBounded(3));
  std::string input = "frame";
  for (int s = 0; s < stages; ++s) {
    AugStage stage;
    stage.name = "s" + std::to_string(s);
    stage.inputs = {input};
    stage.outputs = {"out" + std::to_string(s)};
    auto random_op = [&rng]() {
      AugOp op;
      switch (rng.NextBounded(5)) {
        case 0:
          op.kind = OpKind::kResize;
          op.out_h = 8 + static_cast<int>(rng.NextBounded(8));
          op.out_w = 8 + static_cast<int>(rng.NextBounded(8));
          break;
        case 1:
          op.kind = OpKind::kRandomCrop;
          op.out_h = 6 + static_cast<int>(rng.NextBounded(4));
          op.out_w = 6 + static_cast<int>(rng.NextBounded(4));
          break;
        case 2:
          op.kind = OpKind::kFlip;
          op.prob = 0.25 * static_cast<double>(1 + rng.NextBounded(3));
          break;
        case 3:
          op.kind = OpKind::kBlur;
          op.kernel = 3;
          break;
        default:
          op.kind = OpKind::kInvert;
          break;
      }
      return op;
    };
    switch (rng.NextBounded(3)) {
      case 0:
        stage.type = BranchType::kSingle;
        stage.ops = {random_op()};
        break;
      case 1: {
        stage.type = BranchType::kConditional;
        BranchOption when;
        when.condition = *ParseCondition("iteration > " +
                                         std::to_string(rng.NextBounded(10)));
        when.ops = {random_op()};
        BranchOption otherwise;
        otherwise.condition = *ParseCondition("else");
        stage.branches = {when, otherwise};
        break;
      }
      default: {
        stage.type = BranchType::kRandom;
        BranchOption a;
        a.prob = 0.5;
        a.ops = {random_op()};
        BranchOption b;
        b.prob = 0.5;
        stage.branches = {a, b};
        break;
      }
    }
    config.augmentation.push_back(stage);
    input = "out" + std::to_string(s);
  }
  ASSERT_TRUE(config.Validate().ok());

  auto restored = ParseTaskConfigText(DumpTaskConfigYaml(config));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString() << "\n"
                             << DumpTaskConfigYaml(config);

  auto store = std::make_shared<MemoryStore>();
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 3;
  dataset.frames_per_video = 24;
  dataset.height = 20;
  dataset.width = 28;
  dataset.path = config.dataset_path;
  auto meta = BuildSyntheticDataset(*store, dataset);
  ASSERT_TRUE(meta.ok());
  PlannerOptions options;
  options.k_epochs = 2;
  std::vector<TaskConfig> a = {config};
  std::vector<TaskConfig> b = {*restored};
  auto plan_a = BuildMaterializationPlan(*meta, a, 0, options);
  auto plan_b = BuildMaterializationPlan(*meta, b, 0, options);
  ASSERT_TRUE(plan_a.ok()) << plan_a.status().ToString();
  ASSERT_TRUE(plan_b.ok()) << plan_b.status().ToString();
  for (size_t v = 0; v < plan_a->videos.size(); ++v) {
    ASSERT_EQ(plan_a->videos[v].nodes.size(), plan_b->videos[v].nodes.size());
    for (size_t n = 0; n < plan_a->videos[v].nodes.size(); ++n) {
      ASSERT_EQ(plan_a->videos[v].nodes[n].key, plan_b->videos[v].nodes[n].key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigRoundTripSweep,
                         ::testing::Range<uint64_t>(100, 116));

// --- Checkpoint ---------------------------------------------------------------

TEST(CheckpointTest, YamlRoundTrip) {
  ServiceCheckpoint checkpoint;
  checkpoint.seed = 12345;
  checkpoint.k_epochs = 4;
  checkpoint.total_epochs = 16;
  checkpoint.coordinate = true;
  checkpoint.tasks = {MakeTaskConfig(SlowFastProfile(), "/d", "a"),
                      MakeTaskConfig(MaeProfile(), "/d", "b")};
  checkpoint.task_progress = {7, 9};

  auto restored = ServiceCheckpoint::FromYaml(checkpoint.ToYaml());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->seed, 12345u);
  EXPECT_EQ(restored->k_epochs, 4);
  EXPECT_EQ(restored->total_epochs, 16);
  EXPECT_TRUE(restored->coordinate);
  ASSERT_EQ(restored->tasks.size(), 2u);
  EXPECT_EQ(restored->tasks[0].tag, "a");
  EXPECT_EQ(restored->tasks[1].tag, "b");
  EXPECT_EQ(restored->tasks[1].sampling.frames_per_video, 16);
  EXPECT_EQ(restored->task_progress, (std::vector<int64_t>{7, 9}));
}

TEST(CheckpointTest, SaveLoadThroughStore) {
  MemoryStore store;
  ServiceCheckpoint checkpoint;
  checkpoint.seed = 9;
  checkpoint.k_epochs = 2;
  checkpoint.total_epochs = 4;
  checkpoint.tasks = {MakeTaskConfig(SlowFastProfile(), "/d", "t")};
  ASSERT_TRUE(checkpoint.Save(store).ok());
  EXPECT_TRUE(store.Contains(ServiceCheckpoint::kDefaultKey));
  auto loaded = ServiceCheckpoint::Load(store);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seed, 9u);
  EXPECT_FALSE(ServiceCheckpoint::Load(store, "missing").ok());
}

TEST(CheckpointTest, RejectsCorrupt) {
  EXPECT_FALSE(ServiceCheckpoint::FromYaml("not: checkpoint\n").ok());
  EXPECT_FALSE(ServiceCheckpoint::FromYaml("service:\n  seed: 1\n").ok());
}

TEST(CheckpointTest, ServiceWritesCheckpointOnChunkPlan) {
  auto dataset_store = std::make_shared<MemoryStore>();
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 4;
  dataset.frames_per_video = 24;
  dataset.height = 24;
  dataset.width = 32;
  auto meta = BuildSyntheticDataset(*dataset_store, dataset);
  ASSERT_TRUE(meta.ok());
  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 3;
  profile.frame_stride = 2;
  profile.resize_h = 20;
  profile.resize_w = 28;
  profile.crop_h = 16;
  profile.crop_w = 16;
  std::vector<TaskConfig> tasks = {MakeTaskConfig(profile, meta->path, "train")};
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                             std::make_shared<MemoryStore>(256ULL << 20));
  ServiceOptions options;
  options.k_epochs = 2;
  options.total_epochs = 2;
  options.num_threads = 2;
  SandService service(dataset_store, *meta, cache, tasks, options);
  ASSERT_TRUE(service.Start().ok());
  // Start() plans chunk 0 -> checkpoint written to the disk tier.
  auto loaded = ServiceCheckpoint::Load(cache->disk());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->k_epochs, 2);
  ASSERT_EQ(loaded->tasks.size(), 1u);
  EXPECT_EQ(loaded->tasks[0].tag, "train");
}

// --- Inspection ----------------------------------------------------------------

TEST(InspectTest, AbstractDotContainsStages) {
  auto graph = AbstractViewGraph::Build(MakeTaskConfig(SlowFastProfile(), "/d", "t"));
  ASSERT_TRUE(graph.ok());
  std::string dot = AbstractGraphToDot(*graph);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("decode"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(InspectTest, ConcreteDotMarksCachedAndLeaves) {
  auto store = std::make_shared<MemoryStore>();
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 2;
  dataset.frames_per_video = 24;
  dataset.height = 24;
  dataset.width = 32;
  auto meta = BuildSyntheticDataset(*store, dataset);
  ASSERT_TRUE(meta.ok());
  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 2;
  profile.frame_stride = 2;
  profile.resize_h = 16;
  profile.resize_w = 24;
  profile.crop_h = 12;
  profile.crop_w = 12;
  std::vector<TaskConfig> tasks = {MakeTaskConfig(profile, meta->path, "t")};
  PlannerOptions options;
  options.k_epochs = 1;
  auto plan = BuildMaterializationPlan(*meta, tasks, 0, options);
  ASSERT_TRUE(plan.ok());
  std::string dot = ConcreteGraphToDot(plan->videos[0]);
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos) << "cached nodes marked";
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos) << "leaves marked";
  std::string summary = SummarizePlan(*plan);
  EXPECT_NE(summary.find("concrete nodes"), std::string::npos);
  EXPECT_NE(summary.find("planned batches"), std::string::npos);
}

TEST(InspectTest, TruncatesHugeGraphs) {
  VideoObjectGraph graph;
  graph.video_name = "big";
  for (int i = 0; i < 300; ++i) {
    ConcreteNode node;
    node.id = i;
    node.op.type = i == 0 ? ConcreteOpType::kSource : ConcreteOpType::kDecode;
    if (i > 0) {
      node.parents = {0};
    }
    graph.nodes.push_back(node);
  }
  std::string dot = ConcreteGraphToDot(graph, 50);
  EXPECT_NE(dot.find("more nodes"), std::string::npos);
}

// --- Subprocess ops -------------------------------------------------------------

Result<Frame> Halve(const Frame& input) {
  Frame out = input;
  for (uint8_t& v : out.storage()) {
    v = static_cast<uint8_t>(v / 2);
  }
  return out;
}

TEST(SubprocessOpTest, RoundTripsFrames) {
  auto runner = SubprocessOpRunner::Spawn(&Halve);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  EXPECT_GT((*runner)->worker_pid(), 0);
  Frame input = SynthesizeFrame(5, 0, 16, 24, 3);
  auto output = (*runner)->Apply(input);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ASSERT_TRUE(output->SameShape(input));
  for (size_t i = 0; i < input.storage().size(); ++i) {
    EXPECT_EQ(output->storage()[i], input.storage()[i] / 2);
  }
  EXPECT_EQ((*runner)->round_trips(), 1u);
}

TEST(SubprocessOpTest, MultipleSequentialCalls) {
  auto runner = SubprocessOpRunner::Spawn(&Halve);
  ASSERT_TRUE(runner.ok());
  Frame frame = SynthesizeFrame(6, 1, 8, 8, 3);
  for (int i = 0; i < 5; ++i) {
    auto out = (*runner)->Apply(frame);
    ASSERT_TRUE(out.ok());
    frame = out.TakeValue();
  }
  EXPECT_EQ((*runner)->round_trips(), 5u);
  // After 5 halvings every pixel is tiny.
  for (uint8_t v : frame.data()) {
    EXPECT_LE(v, 8);
  }
}

// A worker that died turns the next Apply into Unavailable: the request
// write to its closed end must not raise SIGPIPE in this process.
TEST(SubprocessOpTest, DeadWorkerReadsAsUnavailable) {
  auto runner = SubprocessOpRunner::Spawn(&Halve);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  Frame frame = SynthesizeFrame(7, 0, 8, 8, 3);
  ASSERT_TRUE((*runner)->Apply(frame).ok());
  const pid_t pid = (*runner)->worker_pid();
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);  // its end is closed from here on
  auto out = (*runner)->Apply(frame);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), ErrorCode::kUnavailable) << out.status().ToString();
}

Result<Frame> AlwaysFails(const Frame&) { return ResourceExhausted("gpu quota: nope"); }

TEST(SubprocessOpTest, WorkerErrorsSurface) {
  auto runner = SubprocessOpRunner::Spawn(&AlwaysFails);
  ASSERT_TRUE(runner.ok());
  Frame frame(4, 4, 1);
  auto out = (*runner)->Apply(frame);
  EXPECT_FALSE(out.ok());
  // The worker's own status — code and message — crosses the pipe instead
  // of a bare "op error", so remote failures are diagnosable.
  EXPECT_EQ(out.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(out.status().message().find("gpu quota: nope"), std::string::npos)
      << out.status().ToString();
  // The worker stays alive after an op error.
  auto again = (*runner)->Apply(frame);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), ErrorCode::kResourceExhausted);
}

TEST(SubprocessOpTest, RegistersAsCustomOp) {
  auto runner = SubprocessOpRunner::Spawn(&Halve);
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE(
      SubprocessOpRunner::RegisterAsCustomOp("halve_rpc", runner.TakeValue()).ok());
  auto fn = CustomOpRegistry::Get().Lookup("halve_rpc");
  ASSERT_TRUE(fn.ok());
  Frame input(4, 4, 3);
  for (auto& v : input.storage()) {
    v = 100;
  }
  auto out = (*fn)(input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At(0, 0, 0), 50);
}

// A request whose length word claims 4 GiB ends the worker loop before any
// buffer is sized from it, and gets no answer.
TEST(SubprocessOpWireTest, HugeLengthWordEndsWorkerLoopWithoutAllocating) {
  int request[2];
  int response[2];
  ASSERT_EQ(::pipe(request), 0);
  ASSERT_EQ(::pipe(response), 0);
  const uint8_t length[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(request[1], length, sizeof(length)), 4);
  ::close(request[1]);
  g_largest_allocation.store(0);
  g_probe_armed.store(true);
  RunOpWorkerLoop(request[0], response[1], &Halve);
  g_probe_armed.store(false);
  EXPECT_LT(g_largest_allocation.load(), size_t{1} << 20);
  ::close(response[1]);
  uint8_t byte = 0;
  EXPECT_EQ(::read(response[0], &byte, 1), 0) << "the worker answered a refused frame";
  ::close(request[0]);
  ::close(response[0]);
}

// --- Calibration ----------------------------------------------------------------

TEST(CalibrateTest, ProducesPositiveCoefficients) {
  CalibrationOptions options;
  options.probe_height = 24;
  options.probe_width = 32;
  options.probe_frames = 8;
  options.repetitions = 1;
  auto model = CalibrateCostModel(options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(model->decode_ns_per_pixel, 0);
  EXPECT_GT(model->resize_ns_per_pixel, 0);
  EXPECT_GT(model->crop_ns_per_pixel, 0);
  EXPECT_GT(model->flip_ns_per_pixel, 0);
  EXPECT_GT(model->jitter_ns_per_pixel, 0);
  EXPECT_GT(model->blur_ns_per_pixel, 0);
  EXPECT_GT(model->compress_ns_per_byte, 0);
  EXPECT_GT(model->cache_compress_ratio, 1.0) << "probe frames must compress";
  // Decode (entropy + filters + delta) must cost more per pixel than a crop
  // (memcpy) — the relationship pruning relies on.
  EXPECT_GT(model->decode_ns_per_pixel, model->crop_ns_per_pixel);
}

}  // namespace
}  // namespace sand
