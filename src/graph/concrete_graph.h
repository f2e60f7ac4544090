// Concrete object dependency graph and the k-epoch materialization plan
// (paper §5.2-§5.3, Fig. 10).
//
// For a chunk of k epochs, the planner unifies all tasks' abstract graphs
// into fully specified per-video object graphs: every node is a concrete
// training object (a decoded frame, an augmented frame with its random
// draws frozen) with a size estimate; every edge carries the producing
// operation's cost. Coordinated randomization (coordination.h) makes
// objects that different tasks can share collide on the same key, merging
// their nodes. Batch plans then reference leaf objects per iteration.
//
// Pruning (src/pruning) later flips nodes' `cache` flags so the cached set
// fits the storage budget; the scheduler (src/sched) executes the plan.

#ifndef SAND_GRAPH_CONCRETE_GRAPH_H_
#define SAND_GRAPH_CONCRETE_GRAPH_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/config/pipeline_config.h"
#include "src/graph/abstract_graph.h"
#include "src/graph/coordination.h"
#include "src/graph/cost_model.h"
#include "src/graph/dataset_meta.h"

namespace sand {

// How a concrete node is produced from its parents.
enum class ConcreteOpType {
  kSource,   // the encoded video itself (graph root; no producer)
  kDecode,   // decode one frame from the parent video
  kAugment,  // apply one augmentation op to the single parent
  kMerge,    // blend multiple parents (merge stage)
};

// A fully resolved operation: all random draws are frozen at planning time
// so a merged node means literally the same bytes for every consumer.
struct ConcreteOp {
  ConcreteOpType type = ConcreteOpType::kSource;
  int64_t frame_index = -1;  // kDecode
  AugOp aug;                 // kAugment
  CropWindow crop;           // resolved rectangle for crops
  bool flip_applied = false;     // resolved flip decision (aug runs iff true)
  int jitter_delta = 0;          // resolved color jitter draws
  double jitter_contrast = 1.0;
};

// A consumer record: some task needs this object at a global iteration.
// Global iterations order deadlines across the whole chunk.
struct Consumer {
  int task = 0;
  int64_t epoch = 0;
  int64_t iteration = 0;         // iteration within the epoch
  int64_t global_iteration = 0;  // ordering key across epochs/tasks
};

struct ConcreteNode {
  int id = -1;
  ViewType view = ViewType::kVideo;
  std::string key;  // canonical object identity; merged nodes share it
  ConcreteOp op;
  std::vector<int> parents;
  std::vector<int> children;
  // Output shape, needed both to execute crops and to estimate size.
  int height = 0;
  int width = 0;
  int channels = 0;
  uint64_t est_stored_bytes = 0;  // cache footprint if this node is cached
  double op_cost_ns = 0;          // cost of producing this node from parents
  std::set<int> tasks;            // consuming task ids
  std::vector<Consumer> consumers;
  bool is_leaf = false;  // terminal training object (feeds a batch)
  bool cache = false;    // materialization decision (set by pruning)
  // Lineage for intermediate-view lookups (Table 1 frame/aug paths):
  int64_t source_frame = -1;  // the decoded frame this object derives from
  int chain_depth = 0;        // 0 = decoded frame, +1 per augmentation

  uint64_t RawBytes() const {
    return static_cast<uint64_t>(height) * width * channels;
  }
};

// All concrete objects derived from one video within the chunk. Node 0 is
// the video root.
class VideoObjectGraph {
 public:
  int video_index = 0;
  std::string video_name;
  std::string video_key;  // store key of the encoded container
  std::vector<ConcreteNode> nodes;

  ConcreteNode& node(int id) { return nodes[static_cast<size_t>(id)]; }
  const ConcreteNode& node(int id) const { return nodes[static_cast<size_t>(id)]; }

  std::vector<int> LeafIds() const;

  // Earliest global iteration at which any consumer needs node `id`.
  int64_t EarliestDeadline(int id) const;
};

// One clip: the leaf objects (in temporal order) a sample contributes.
struct ClipRef {
  int video_index = 0;
  int sample = 0;
  std::vector<int> leaf_ids;  // node ids within videos[video_index]
};

// One training batch of one task.
struct BatchPlan {
  int task = 0;
  int64_t epoch = 0;
  int64_t iteration = 0;         // within the epoch
  int64_t global_iteration = 0;  // epoch * iterations_per_epoch + iteration
  std::vector<ClipRef> clips;
  std::string view_path;  // Table 1 batch view path
};

// Operation counts, with and without cross-task merging — the Fig. 16
// metric. `requested` counts every (task, consumer) use; `unique` counts
// distinct objects after merging.
struct OpCounts {
  uint64_t decode_requested = 0;
  uint64_t decode_unique = 0;
  uint64_t crop_requested = 0;
  uint64_t crop_unique = 0;
  uint64_t aug_requested = 0;  // all augmentation ops
  uint64_t aug_unique = 0;

  static double Reduction(uint64_t requested, uint64_t unique) {
    return requested == 0
               ? 0.0
               : 1.0 - static_cast<double>(unique) / static_cast<double>(requested);
  }
};

struct PlannerOptions {
  int k_epochs = 4;
  bool coordinate = true;  // shared pool / window / choices (ablation switch)
  uint64_t seed = 42;
  CostModel costs;
};

// The complete plan for epochs [epoch_begin, epoch_begin + k).
struct MaterializationPlan {
  int64_t epoch_begin = 0;
  int64_t epoch_end = 0;
  std::vector<TaskConfig> tasks;
  DatasetMeta dataset;
  PlannerOptions options;
  std::vector<VideoObjectGraph> videos;
  std::vector<BatchPlan> batches;  // ordered by (task, epoch, iteration)

  OpCounts CountOps() const;

  // Cache footprint if exactly the currently flagged nodes are cached.
  uint64_t CachedBytes() const;

  // Marks all leaves cached, everything else not — the pre-pruning state.
  void ResetCacheFlagsToLeaves();

  // Iterations per epoch for a task (videos dropped beyond the last full
  // batch, PyTorch drop_last semantics).
  int64_t IterationsPerEpoch(int task) const;

  const BatchPlan* FindBatch(int task, int64_t epoch, int64_t iteration) const;
};

// Builds the unified concrete plan for all tasks over one k-epoch chunk.
// All tasks must target the same dataset (the paper's sharing scenarios).
Result<MaterializationPlan> BuildMaterializationPlan(const DatasetMeta& dataset,
                                                     std::span<const TaskConfig> tasks,
                                                     int64_t epoch_begin,
                                                     const PlannerOptions& options);

// Per-frame selection histogram over a plan — the Fig. 19 CDF input:
// result[i] = number of times video-frame i (flattened over all videos) was
// selected. Vector length = num_videos * frames_per_video.
std::vector<int> FrameSelectionCounts(const MaterializationPlan& plan);

}  // namespace sand

#endif  // SAND_GRAPH_CONCRETE_GRAPH_H_
