// Tests for Algorithm 1 (object graph pruning under a storage budget).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/pruning/graph_pruning.h"
#include "src/workloads/models.h"

namespace sand {
namespace {

DatasetMeta TestMeta(int videos = 4) {
  DatasetMeta meta;
  meta.path = "/dataset/train";
  for (int v = 0; v < videos; ++v) {
    meta.video_names.push_back("vid" + std::to_string(v));
  }
  meta.frames_per_video = 48;
  meta.height = 32;
  meta.width = 48;
  meta.channels = 3;
  meta.gop_size = 8;
  meta.encoded_bytes_per_video = 10000;
  return meta;
}

MaterializationPlan MakePlan(int videos = 4, int k = 2) {
  DatasetMeta meta = TestMeta(videos);
  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 4;
  profile.frame_stride = 4;
  std::vector<TaskConfig> tasks = {MakeTaskConfig(profile, meta.path, "t")};
  PlannerOptions options;
  options.k_epochs = k;
  options.seed = 5;
  auto plan = BuildMaterializationPlan(meta, tasks, 0, options);
  EXPECT_TRUE(plan.ok());
  return plan.TakeValue();
}

TEST(PruningTest, LargeBudgetPrunesNothing) {
  MaterializationPlan plan = MakePlan();
  uint64_t initial = plan.CachedBytes();
  PruningReport report = PruneToBudget(plan, initial * 2);
  EXPECT_EQ(report.subtrees_pruned, 0);
  EXPECT_EQ(report.final_bytes, initial);
  EXPECT_TRUE(report.fits_budget);
}

TEST(PruningTest, MeetsTightBudget) {
  MaterializationPlan plan = MakePlan();
  uint64_t initial = plan.CachedBytes();
  uint64_t budget = initial / 3;
  PruningReport report = PruneToBudget(plan, budget);
  EXPECT_TRUE(report.fits_budget) << report.final_bytes << " vs " << budget;
  EXPECT_LE(plan.CachedBytes(), budget);
  EXPECT_GT(report.subtrees_pruned, 0);
  EXPECT_EQ(report.initial_bytes, initial);
}

TEST(PruningTest, ZeroBudgetCachesNothing) {
  MaterializationPlan plan = MakePlan();
  PruningReport report = PruneToBudget(plan, 0);
  EXPECT_TRUE(report.fits_budget);
  EXPECT_EQ(plan.CachedBytes(), 0u);
}

TEST(PruningTest, PrunedNodesStayConnected) {
  MaterializationPlan plan = MakePlan();
  PruneToBudget(plan, plan.CachedBytes() / 2);
  // Invariant: on every root-to-leaf path there is at most one cached node
  // "frontier" transition... weaker but checkable: a cached node must not
  // have a cached ancestor (the collapse replaces whole subtrees).
  for (const VideoObjectGraph& graph : plan.videos) {
    for (const ConcreteNode& node : graph.nodes) {
      if (!node.cache) {
        continue;
      }
      // Walk up all ancestor chains.
      std::vector<int> stack = node.parents;
      while (!stack.empty()) {
        int current = stack.back();
        stack.pop_back();
        EXPECT_FALSE(graph.node(current).cache)
            << "cached node " << node.id << " has cached ancestor " << current;
        stack.insert(stack.end(), graph.node(current).parents.begin(),
                     graph.node(current).parents.end());
      }
    }
  }
}

TEST(PruningTest, RecomputeGrowsAsBudgetShrinks) {
  MaterializationPlan loose = MakePlan();
  MaterializationPlan tight = MakePlan();
  uint64_t initial = loose.CachedBytes();
  PruningReport loose_report = PruneToBudget(loose, initial);
  PruningReport tight_report = PruneToBudget(tight, initial / 4);
  EXPECT_GE(tight_report.estimated_recompute_ns, loose_report.estimated_recompute_ns)
      << "less cache must mean more recomputation";
}

TEST(PruningTest, PruneGraphOnceReturnsSavings) {
  MaterializationPlan plan = MakePlan(1);
  VideoObjectGraph& graph = plan.videos[0];
  uint64_t before = 0;
  for (const ConcreteNode& node : graph.nodes) {
    if (node.cache) {
      before += node.est_stored_bytes;
    }
  }
  uint64_t saved = PruneGraphOnce(graph);
  uint64_t after = 0;
  for (const ConcreteNode& node : graph.nodes) {
    if (node.cache && node.op.type != ConcreteOpType::kSource) {
      after += node.est_stored_bytes;
    }
  }
  EXPECT_EQ(before - after, saved);
}

TEST(PruningTest, HandlesMergeDags) {
  // Merge stages give the concrete graph DAG shape (a node reachable via
  // two parents); pruning must not double-count or loop.
  DatasetMeta meta = TestMeta(2);
  TaskConfig task;
  task.tag = "dag";
  task.dataset_path = meta.path;
  task.sampling.videos_per_batch = 2;
  task.sampling.frames_per_video = 2;
  task.sampling.frame_stride = 2;
  AugStage multi;
  multi.name = "fan";
  multi.type = BranchType::kMulti;
  multi.inputs = {"frame"};
  multi.outputs = {"a", "b"};
  task.augmentation.push_back(multi);
  AugStage invert;
  invert.name = "inv";
  invert.type = BranchType::kSingle;
  invert.inputs = {"b"};
  invert.outputs = {"b2"};
  AugOp op;
  op.kind = OpKind::kInvert;
  invert.ops.push_back(op);
  task.augmentation.push_back(invert);
  AugStage merge;
  merge.name = "join";
  merge.type = BranchType::kMerge;
  merge.inputs = {"a", "b2"};
  merge.outputs = {"out"};
  task.augmentation.push_back(merge);
  ASSERT_TRUE(task.Validate().ok());

  PlannerOptions options;
  options.k_epochs = 2;
  std::vector<TaskConfig> tasks = {task};
  auto plan = BuildMaterializationPlan(meta, tasks, 0, options);
  ASSERT_TRUE(plan.ok());
  uint64_t initial = plan->CachedBytes();
  ASSERT_GT(initial, 0u);
  PruningReport report = PruneToBudget(*plan, initial / 4);
  EXPECT_TRUE(report.fits_budget);
  EXPECT_LE(plan->CachedBytes(), initial / 4);
}

TEST(PruningTest, BudgetMonotonicity) {
  // final_bytes must be monotone non-decreasing in the budget.
  uint64_t previous = 0;
  MaterializationPlan reference = MakePlan();
  uint64_t initial = reference.CachedBytes();
  for (uint64_t divisor : {16, 8, 4, 2, 1}) {
    MaterializationPlan plan = MakePlan();
    PruningReport report = PruneToBudget(plan, initial / divisor);
    EXPECT_GE(report.final_bytes, previous);
    previous = report.final_bytes;
  }
}

// PruneToBudget's round loop with every step a fresh PruneGraphOnce: the
// reference its memoized subtrees must reproduce decision for decision.
PruningReport PruneStepByStep(MaterializationPlan& plan, uint64_t budget_bytes) {
  PruningReport report;
  uint64_t data_size = plan.CachedBytes();
  bool progress = true;
  while (data_size > budget_bytes && progress) {
    progress = false;
    ++report.rounds;
    for (VideoObjectGraph& graph : plan.videos) {
      uint64_t reduced = PruneGraphOnce(graph);
      if (reduced > 0) {
        progress = true;
        ++report.subtrees_pruned;
        data_size -= std::min(reduced, data_size);
      }
      if (data_size <= budget_bytes) {
        break;
      }
    }
  }
  report.final_bytes = plan.CachedBytes();
  return report;
}

std::vector<bool> CacheFlags(const MaterializationPlan& plan) {
  std::vector<bool> flags;
  for (const VideoObjectGraph& graph : plan.videos) {
    for (const ConcreteNode& node : graph.nodes) {
      flags.push_back(node.cache);
    }
  }
  return flags;
}

TEST(PruningTest, PruneToBudgetMatchesStepByStepRounds) {
  struct Shape {
    int videos;
    int k;
  };
  for (Shape shape : {Shape{1, 1}, Shape{4, 2}, Shape{6, 3}, Shape{3, 5}}) {
    const uint64_t initial = MakePlan(shape.videos, shape.k).CachedBytes();
    for (uint64_t divisor : {1, 2, 3, 4, 8, 16}) {
      SCOPED_TRACE(std::to_string(shape.videos) + " videos, k " + std::to_string(shape.k) +
                   ", budget initial/" + std::to_string(divisor));
      MaterializationPlan memoized = MakePlan(shape.videos, shape.k);
      MaterializationPlan stepped = MakePlan(shape.videos, shape.k);
      PruningReport report = PruneToBudget(memoized, initial / divisor);
      PruningReport reference = PruneStepByStep(stepped, initial / divisor);
      EXPECT_EQ(CacheFlags(memoized), CacheFlags(stepped));
      EXPECT_EQ(report.rounds, reference.rounds);
      EXPECT_EQ(report.subtrees_pruned, reference.subtrees_pruned);
      EXPECT_EQ(report.final_bytes, reference.final_bytes);
    }
  }
}

TEST(PruningTest, BudgetCompressedPlanKeepsRecordedCachedSet) {
  // The shape of the data-path benchmark's budget_compressed plan: 24
  // videos x 96 frames at 64x96, GOP 8, SlowFast clips, a 12-epoch chunk
  // from planner seed 7, pruned to 75% (the eviction watermark) of 3 MiB.
  // The digest of its cached set was recorded from the re-walking
  // implementation, so a faster pruning must keep every decision.
  DatasetMeta meta;
  meta.path = "/dataset/train";
  for (int v = 0; v < 24; ++v) {
    meta.video_names.push_back("video_" + std::to_string(v));
  }
  meta.frames_per_video = 96;
  meta.height = 64;
  meta.width = 96;
  meta.channels = 3;
  meta.gop_size = 8;
  meta.encoded_bytes_per_video = 200000;
  std::vector<TaskConfig> tasks = {MakeTaskConfig(SlowFastProfile(), meta.path, "train")};
  PlannerOptions options;
  options.k_epochs = 12;
  options.seed = 7;
  auto plan = BuildMaterializationPlan(meta, tasks, 0, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PruningReport report = PruneToBudget(*plan, (3u << 20) / 4 * 3);
  EXPECT_TRUE(report.fits_budget);

  // FNV-1a over "<video>:<node>," for every cached node, in plan order.
  uint64_t digest = 1469598103934665603ULL;
  size_t nodes = 0;
  size_t cached = 0;
  for (size_t v = 0; v < plan->videos.size(); ++v) {
    for (const ConcreteNode& node : plan->videos[v].nodes) {
      ++nodes;
      if (!node.cache) {
        continue;
      }
      ++cached;
      for (char c : std::to_string(v) + ":" + std::to_string(node.id) + ",") {
        digest = (digest ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
      }
    }
  }
  std::printf("plan: %zu nodes, %zu cached, %d rounds, %d subtrees pruned, digest %llu\n",
              nodes, cached, report.rounds, report.subtrees_pruned,
              static_cast<unsigned long long>(digest));
  EXPECT_EQ(nodes, 4112u);
  EXPECT_EQ(cached, 667u);
  EXPECT_EQ(report.rounds, 67);
  EXPECT_EQ(report.subtrees_pruned, 1358);
  EXPECT_EQ(digest, 5240712353829857510ULL);
}

}  // namespace
}  // namespace sand
