// Cross-module integration tests: SAND against the baselines on real
// (small) workloads, checking the *mechanisms* behind each headline claim
// with deterministic counters rather than wall-clock times.

#include <gtest/gtest.h>

#include "src/baselines/sources.h"
#include "src/core/batch_format.h"
#include "src/core/sand_service.h"
#include "src/pruning/graph_pruning.h"
#include "src/workloads/mlp.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"

namespace sand {
namespace {

SyntheticDatasetOptions Dataset(int videos = 6, int frames = 32) {
  SyntheticDatasetOptions options;
  options.num_videos = videos;
  options.frames_per_video = frames;
  options.height = 24;
  options.width = 32;
  options.gop_size = 4;
  options.seed = 31;
  return options;
}

ModelProfile Profile() {
  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 3;
  profile.frame_stride = 2;
  profile.resize_h = 20;
  profile.resize_w = 28;
  profile.crop_h = 16;
  profile.crop_w = 16;
  return profile;
}

std::shared_ptr<TieredCache> BigCache() {
  return std::make_shared<TieredCache>(std::make_shared<MemoryStore>(256ULL << 20),
                                       std::make_shared<MemoryStore>(512ULL << 20));
}

// SAND's core claim in counter form: across epochs within a chunk, SAND
// decodes each needed frame once while the on-demand baseline re-decodes
// every epoch.
TEST(IntegrationTest, SandDecodesLessThanOnDemand) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, Dataset());
  ASSERT_TRUE(meta.ok());
  TaskConfig task = MakeTaskConfig(Profile(), meta->path, "train");

  ServiceOptions service_options;
  service_options.k_epochs = 3;
  service_options.total_epochs = 3;
  service_options.num_threads = 2;
  service_options.storage_budget_bytes = 128ULL << 20;
  SandService service(store, *meta, BigCache(), {task}, service_options);
  ASSERT_TRUE(service.Start().ok());
  service.WaitForBackgroundWork();
  int64_t ipe = 3;  // 6 videos / 2 per batch
  for (int64_t epoch = 0; epoch < 3; ++epoch) {
    for (int64_t iter = 0; iter < ipe; ++iter) {
      auto fd = service.fs().Open(ViewPath::Batch("train", epoch, iter).Format());
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(service.fs().ReadAllShared(*fd).ok());
      ASSERT_TRUE(service.fs().Close(*fd).ok());
    }
  }
  uint64_t sand_decoded = service.stats().exec.frames_decoded;

  OnDemandCpuSource::Options cpu_options;
  cpu_options.num_threads = 2;
  cpu_options.prefetch = false;
  OnDemandCpuSource baseline(store, *meta, task, cpu_options, nullptr);
  for (int64_t epoch = 0; epoch < 3; ++epoch) {
    for (int64_t iter = 0; iter < ipe; ++iter) {
      ASSERT_TRUE(baseline.NextBatch(epoch, iter).ok());
    }
  }
  uint64_t baseline_decoded = baseline.exec_stats().frames_decoded;
  EXPECT_LT(sand_decoded, baseline_decoded)
      << "SAND must decode fewer frames than decode-every-epoch";
  EXPECT_LT(sand_decoded * 2, baseline_decoded * 3)
      << "with k=3 epochs per chunk the saving should be substantial";
}

// Fig. 16 mechanism: planning removes a large share of decode and crop ops
// in a two-task setting.
TEST(IntegrationTest, PlanningRemovesRedundantOps) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, Dataset());
  ASSERT_TRUE(meta.ok());
  ModelProfile slowfast = Profile();
  ModelProfile mae = Profile();
  mae.frame_stride = 1;  // heterogeneous but grid-compatible
  std::vector<TaskConfig> tasks = {MakeTaskConfig(slowfast, meta->path, "slowfast"),
                                   MakeTaskConfig(mae, meta->path, "mae")};
  // Multi-epoch chunk: the chunk-level shared pool concentrates decoding
  // across both tasks and epochs.
  PlannerOptions coordinated;
  coordinated.k_epochs = 4;
  coordinated.coordinate = true;
  PlannerOptions independent = coordinated;
  independent.coordinate = false;

  auto with = BuildMaterializationPlan(*meta, tasks, 0, coordinated);
  auto without = BuildMaterializationPlan(*meta, tasks, 0, independent);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  OpCounts with_counts = with->CountOps();
  OpCounts without_counts = without->CountOps();
  double decode_reduction = 1.0 - static_cast<double>(with_counts.decode_unique) /
                                      static_cast<double>(without_counts.decode_unique);
  EXPECT_GT(decode_reduction, 0.2) << "shared pool must remove a large share of decodes";
  EXPECT_LE(with_counts.crop_unique, without_counts.crop_unique);
}

// Fig. 19 mechanism: with coordination frames concentrate (selected >= 4
// times across epochs/tasks far more often).
TEST(IntegrationTest, FrameSelectionConcentrates) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, Dataset(4, 64));
  ASSERT_TRUE(meta.ok());
  std::vector<TaskConfig> tasks = {MakeTaskConfig(Profile(), meta->path, "a"),
                                   MakeTaskConfig(Profile(), meta->path, "b")};
  PlannerOptions options;
  options.k_epochs = 10;
  auto share_at_least = [](const std::vector<int>& counts, int threshold) {
    int selected = 0;
    int heavy = 0;
    for (int count : counts) {
      if (count > 0) {
        ++selected;
        if (count >= threshold) {
          ++heavy;
        }
      }
    }
    return selected == 0 ? 0.0 : static_cast<double>(heavy) / selected;
  };
  options.coordinate = true;
  auto with = BuildMaterializationPlan(*meta, tasks, 0, options);
  options.coordinate = false;
  auto without = BuildMaterializationPlan(*meta, tasks, 0, options);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  double with_share = share_at_least(FrameSelectionCounts(*with), 4);
  double without_share = share_at_least(FrameSelectionCounts(*without), 4);
  EXPECT_GT(with_share, without_share)
      << "coordination must concentrate frame selection (Fig. 19)";
}

// Fig. 20 mechanism: coordinated randomization must not change convergence.
TEST(IntegrationTest, CoordinationPreservesConvergence) {
  auto store = std::make_shared<MemoryStore>();
  SyntheticDatasetOptions dataset = Dataset(6, 32);
  auto meta = BuildSyntheticDataset(*store, dataset);
  ASSERT_TRUE(meta.ok());
  TaskConfig task = MakeTaskConfig(Profile(), meta->path, "train");

  auto run_training = [&](bool coordinate) {
    PlannerOptions options;
    options.k_epochs = 8;
    options.coordinate = coordinate;
    options.seed = coordinate ? 42 : 43;  // distinct random streams
    std::vector<TaskConfig> tasks = {task};
    auto plan = BuildMaterializationPlan(*meta, tasks, 0, options);
    EXPECT_TRUE(plan.ok());
    ContainerCache containers(store, 8);
    MlpRegressor model(kClipFeatureDim, 16, 7);
    std::vector<double> losses;
    for (const BatchPlan& batch : plan->batches) {
      std::vector<std::vector<double>> features;
      std::vector<double> labels;
      for (const ClipRef& ref : batch.clips) {
        const VideoObjectGraph& graph = plan->videos[static_cast<size_t>(ref.video_index)];
        ExecCounters counters;
        SubtreeExecutor executor(graph, &containers, nullptr, nullptr, counters);
        Clip clip;
        for (int leaf : ref.leaf_ids) {
          auto frame = executor.Produce(leaf, false);
          EXPECT_TRUE(frame.ok());
          clip.frames.push_back(frame.TakeValue());
        }
        features.push_back(ClipFeatures(clip));
        labels.push_back(SyntheticLabel(VideoSeed(dataset.seed, ref.video_index)));
      }
      losses.push_back(model.TrainBatch(features, labels, 0.1));
    }
    return losses;
  };

  std::vector<double> coordinated = run_training(true);
  std::vector<double> independent = run_training(false);
  ASSERT_EQ(coordinated.size(), independent.size());
  auto tail_mean = [](const std::vector<double>& losses) {
    double sum = 0;
    size_t n = losses.size() / 4;
    for (size_t i = losses.size() - n; i < losses.size(); ++i) {
      sum += losses[i];
    }
    return sum / static_cast<double>(n);
  };
  double head_c = coordinated.front();
  double tail_c = tail_mean(coordinated);
  double tail_i = tail_mean(independent);
  EXPECT_LT(tail_c, head_c * 0.5) << "training must actually converge";
  EXPECT_NEAR(tail_c, tail_i, std::max(tail_i, 0.002) * 1.5)
      << "coordinated and fresh randomness must converge alike (Fig. 20)";
}

// Fig. 14 mechanism: with a remote dataset, SAND's local materialization
// slashes network traffic versus per-epoch re-reads.
TEST(IntegrationTest, RemoteTrafficSavings) {
  auto origin = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*origin, Dataset(4, 32));
  ASSERT_TRUE(meta.ok());
  TaskConfig task = MakeTaskConfig(Profile(), meta->path, "train");
  const int64_t epochs = 3;
  const int64_t ipe = 2;

  auto sand_remote = std::make_shared<RemoteStore>(origin, /*bandwidth=*/0.0, /*latency=*/0);
  ServiceOptions options;
  options.k_epochs = static_cast<int>(epochs);
  options.total_epochs = epochs;
  options.num_threads = 2;
  options.storage_budget_bytes = 128ULL << 20;
  options.container_cache_entries = 2;  // small: forces re-fetch without reuse
  SandService service(sand_remote, *meta, BigCache(), {task}, options);
  ASSERT_TRUE(service.Start().ok());
  service.WaitForBackgroundWork();
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    for (int64_t iter = 0; iter < ipe; ++iter) {
      auto fd = service.fs().Open(ViewPath::Batch("train", epoch, iter).Format());
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(service.fs().ReadAllShared(*fd).ok());
    }
  }
  uint64_t sand_traffic = sand_remote->traffic().bytes_read;

  auto baseline_remote = std::make_shared<RemoteStore>(origin, 0.0, 0);
  OnDemandCpuSource::Options cpu_options;
  cpu_options.num_threads = 2;
  cpu_options.prefetch = false;
  // At real dataset scale nothing survives the page cache between epochs.
  cpu_options.container_cache_entries = 1;
  OnDemandCpuSource baseline(baseline_remote, *meta, task, cpu_options, nullptr);
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    for (int64_t iter = 0; iter < ipe; ++iter) {
      ASSERT_TRUE(baseline.NextBatch(epoch, iter).ok());
    }
  }
  uint64_t baseline_traffic = baseline_remote->traffic().bytes_read;
  EXPECT_LT(sand_traffic, baseline_traffic)
      << "SAND must fetch each container roughly once per chunk";
}

// The pruning trade-off is visible end-to-end: a pruned (smaller) cache
// still serves all batches, with bounded extra decoding.
TEST(IntegrationTest, PrunedServiceServesEverything) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, Dataset(4, 32));
  ASSERT_TRUE(meta.ok());
  TaskConfig task = MakeTaskConfig(Profile(), meta->path, "train");
  ServiceOptions options;
  options.k_epochs = 2;
  options.total_epochs = 2;
  options.num_threads = 2;
  options.storage_budget_bytes = 24 * 1024;  // tiny
  SandService service(store, *meta, BigCache(), {task}, options);
  ASSERT_TRUE(service.Start().ok());
  for (int64_t epoch = 0; epoch < 2; ++epoch) {
    for (int64_t iter = 0; iter < 2; ++iter) {
      auto fd = service.fs().Open(ViewPath::Batch("train", epoch, iter).Format());
      ASSERT_TRUE(fd.ok());
      auto bytes = service.fs().ReadAllShared(*fd);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      EXPECT_TRUE(ParseBatchHeader(**bytes).ok());
    }
  }
}

}  // namespace
}  // namespace sand
