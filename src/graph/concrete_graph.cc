#include "src/graph/concrete_graph.h"

#include <algorithm>
#include <cassert>

#include "src/common/strings.h"

namespace sand {
namespace {

// Resolved-operation signature: part of a node's identity, so two uses
// merge exactly when every frozen draw agrees.
std::string ResolvedSignature(const ConcreteOp& op) {
  switch (op.type) {
    case ConcreteOpType::kSource:
      return "source";
    case ConcreteOpType::kDecode:
      return StrFormat("decode(%lld)", static_cast<long long>(op.frame_index));
    case ConcreteOpType::kMerge:
      return "merge";
    case ConcreteOpType::kAugment:
      break;
  }
  const AugOp& aug = op.aug;
  switch (aug.kind) {
    case OpKind::kRandomCrop:
      return StrFormat("rcrop(%d,%d,%d,%d)", op.crop.y, op.crop.x, op.crop.h, op.crop.w);
    case OpKind::kCenterCrop:
      return StrFormat("ccrop(%d,%d)", aug.out_h, aug.out_w);
    case OpKind::kFlip:
      return "flip";
    case OpKind::kColorJitter:
      return StrFormat("jit(%d,%.4f)", op.jitter_delta, op.jitter_contrast);
    default:
      return aug.Signature();
  }
}

struct ShapeHWC {
  int h;
  int w;
  int c;
};

ShapeHWC OutputShape(const ConcreteOp& op, ShapeHWC in) {
  if (op.type != ConcreteOpType::kAugment) {
    return in;
  }
  switch (op.aug.kind) {
    case OpKind::kResize:
      return {op.aug.out_h, op.aug.out_w, in.c};
    case OpKind::kRandomCrop:
      return {op.crop.h, op.crop.w, in.c};
    case OpKind::kCenterCrop:
      return {std::min(op.aug.out_h, in.h), std::min(op.aug.out_w, in.w), in.c};
    case OpKind::kRotate90:
      return {in.w, in.h, in.c};
    default:
      return in;
  }
}

// Builds per-video graphs and batch plans for every task.
class PlanBuilder {
 public:
  PlanBuilder(const DatasetMeta& dataset, std::span<const TaskConfig> tasks, int64_t epoch_begin,
              const PlannerOptions& options)
      : dataset_(dataset), tasks_(tasks), epoch_begin_(epoch_begin), options_(options) {
    samplings_.reserve(tasks.size());
    for (const TaskConfig& task : tasks) {
      samplings_.push_back(task.sampling);
    }
    max_crop_ = MaxRandomCropDims(tasks);
  }

  Result<MaterializationPlan> Build() {
    MaterializationPlan plan;
    plan.epoch_begin = epoch_begin_;
    plan.epoch_end = epoch_begin_ + options_.k_epochs;
    plan.tasks.assign(tasks_.begin(), tasks_.end());
    plan.dataset = dataset_;
    plan.options = options_;

    if (dataset_.num_videos() == 0 || dataset_.frames_per_video <= 0) {
      return InvalidArgument("planner: empty dataset");
    }
    for (const TaskConfig& task : tasks_) {
      if (task.dataset_path != dataset_.path) {
        return InvalidArgument("planner: task '" + task.tag +
                               "' targets a different dataset than the plan");
      }
      SAND_ASSIGN_OR_RETURN(AbstractViewGraph abstract, AbstractViewGraph::Build(task));
      abstract_.push_back(std::move(abstract));
    }

    // Per-video graphs with the encoded-video root.
    plan.videos.reserve(static_cast<size_t>(dataset_.num_videos()));
    for (int v = 0; v < dataset_.num_videos(); ++v) {
      VideoObjectGraph graph;
      graph.video_index = v;
      graph.video_name = dataset_.video_names[static_cast<size_t>(v)];
      graph.video_key = dataset_.path + "/" + graph.video_name + ".svc";
      ConcreteNode root;
      root.id = 0;
      root.view = ViewType::kVideo;
      root.key = "video";
      root.op.type = ConcreteOpType::kSource;
      root.height = dataset_.height;
      root.width = dataset_.width;
      root.channels = dataset_.channels;
      root.est_stored_bytes = dataset_.encoded_bytes_per_video;
      graph.nodes.push_back(std::move(root));
      plan.videos.push_back(std::move(graph));
      key_maps_.emplace_back();
      key_maps_.back()["video"] = 0;
    }

    for (int t = 0; t < static_cast<int>(tasks_.size()); ++t) {
      SAND_RETURN_IF_ERROR(BuildTask(plan, t));
    }
    std::sort(plan.batches.begin(), plan.batches.end(),
              [](const BatchPlan& a, const BatchPlan& b) {
                if (a.task != b.task) {
                  return a.task < b.task;
                }
                if (a.epoch != b.epoch) {
                  return a.epoch < b.epoch;
                }
                return a.iteration < b.iteration;
              });
    // Final storage estimates: leaves live raw in the memory tier (ready
    // for zero-cost batch assembly); interior objects are compressed when
    // spilled to disk. Pruning trades against these actual footprints.
    for (VideoObjectGraph& graph : plan.videos) {
      for (ConcreteNode& node : graph.nodes) {
        if (node.op.type == ConcreteOpType::kSource) {
          continue;
        }
        node.est_stored_bytes = node.is_leaf
                                    ? node.RawBytes() + 12
                                    : options_.costs.EstimateStoredBytes(node.RawBytes());
      }
    }
    plan.ResetCacheFlagsToLeaves();
    return plan;
  }

 private:
  Status BuildTask(MaterializationPlan& plan, int t) {
    const TaskConfig& task = tasks_[static_cast<size_t>(t)];
    const SamplingConfig& sampling = task.sampling;
    const int num_videos = dataset_.num_videos();
    const int vpb = std::min(sampling.videos_per_batch, num_videos);
    const int64_t ipe = std::max<int64_t>(1, num_videos / vpb);

    for (int64_t epoch = epoch_begin_; epoch < epoch_begin_ + options_.k_epochs; ++epoch) {
      // Per-task, per-epoch video permutation: the Data Access Rule (every
      // video exactly once per epoch) with task-private order randomness.
      std::vector<int> perm(static_cast<size_t>(num_videos));
      for (int v = 0; v < num_videos; ++v) {
        perm[static_cast<size_t>(v)] = v;
      }
      Rng perm_rng(HashCombine(HashCombine(HashCombine(options_.seed, "perm"), t), epoch));
      perm_rng.Shuffle(perm);

      for (int64_t iter = 0; iter < ipe; ++iter) {
        BatchPlan batch;
        batch.task = t;
        batch.epoch = epoch;
        batch.iteration = iter;
        batch.global_iteration = epoch * ipe + iter;
        batch.view_path = ViewPath::Batch(task.tag, epoch, iter).Format();
        for (int slot = 0; slot < vpb; ++slot) {
          int video = perm[static_cast<size_t>(iter * vpb + slot)];
          for (int sample = 0; sample < sampling.samples_per_video; ++sample) {
            SAND_ASSIGN_OR_RETURN(
                ClipRef clip, BuildClip(plan, t, video, sample, epoch, iter,
                                        batch.global_iteration));
            batch.clips.push_back(std::move(clip));
          }
        }
        plan.batches.push_back(std::move(batch));
      }
    }
    return Status::Ok();
  }

  // Seed for a coordinated draw. Mixing the task id in uncoordinated mode
  // is exactly what destroys cross-task collisions.
  uint64_t DrawSeed(int t, const std::string& video_name, int64_t epoch, int sample,
                    int stage, int op_index) const {
    uint64_t seed = HashCombine(options_.seed, video_name);
    seed = HashCombine(seed, epoch);
    seed = HashCombine(seed, sample);
    seed = HashCombine(seed, stage);
    seed = HashCombine(seed, op_index);
    if (!options_.coordinate) {
      seed = HashCombine(seed, 0x7461736bLL + t);
    }
    return seed;
  }

  Result<ClipRef> BuildClip(MaterializationPlan& plan, int t, int video, int sample,
                            int64_t epoch, int64_t iteration, int64_t global_iteration) {
    const TaskConfig& task = tasks_[static_cast<size_t>(t)];
    VideoObjectGraph& graph = plan.videos[static_cast<size_t>(video)];

    // Temporal selection. Coordinated: one shared pool per (video, chunk,
    // sample) — task-agnostic AND epoch-agnostic — with a per-epoch random
    // phase inside it, so tasks collide within an epoch and epochs reuse
    // the same decoded region across the chunk. Uncoordinated: fresh
    // independent draws every (task, epoch).
    std::vector<int64_t> frames;
    if (options_.coordinate) {
      uint64_t pool_seed = DrawSeed(t, graph.video_name, epoch_begin_, sample, /*stage=*/-2,
                                    /*op_index=*/-1);
      FramePool pool = PlanFramePool(pool_seed, dataset_.frames_per_video, samplings_);
      uint64_t phase_seed = DrawSeed(t, graph.video_name, epoch, sample, /*stage=*/-1,
                                     /*op_index=*/-1);
      frames = DrawTaskFramesWithPhase(pool, task.sampling, phase_seed);
    } else {
      uint64_t pool_seed = DrawSeed(t, graph.video_name, epoch, sample, /*stage=*/-1,
                                    /*op_index=*/-1);
      frames = DrawIndependentFrames(pool_seed, dataset_.frames_per_video, task.sampling);
    }

    ClipRef clip;
    clip.video_index = video;
    clip.sample = sample;
    Consumer consumer{t, epoch, iteration, global_iteration};

    std::vector<std::string> terminals = abstract_[static_cast<size_t>(t)].TerminalStreams();
    for (int64_t frame_index : frames) {
      SAND_ASSIGN_OR_RETURN(
          std::vector<int> leaf_ids,
          BuildFramePath(graph, t, frame_index, epoch, sample, consumer, terminals));
      clip.leaf_ids.insert(clip.leaf_ids.end(), leaf_ids.begin(), leaf_ids.end());
    }
    return clip;
  }

  // Instantiates (or merges into) the node chain for one selected frame of
  // one task use, returning the terminal leaf node ids.
  Result<std::vector<int>> BuildFramePath(VideoObjectGraph& graph, int t, int64_t frame_index,
                                          int64_t epoch, int sample, const Consumer& consumer,
                                          const std::vector<std::string>& terminals) {
    const TaskConfig& task = tasks_[static_cast<size_t>(t)];

    // Decoded-frame node.
    ConcreteOp decode;
    decode.type = ConcreteOpType::kDecode;
    decode.frame_index = frame_index;
    ShapeHWC shape{dataset_.height, dataset_.width, dataset_.channels};
    int frame_node = EnsureNode(graph, ViewType::kFrame, {0}, decode, shape,
                                options_.costs.decode_ns_per_pixel *
                                    static_cast<double>(shape.h) * shape.w * shape.c);
    TouchNode(graph, frame_node, t, consumer);

    std::map<std::string, std::pair<int, ShapeHWC>> streams;
    streams["frame"] = {frame_node, shape};

    for (int s = 0; s < static_cast<int>(task.augmentation.size()); ++s) {
      const AugStage& stage = task.augmentation[s];
      auto input_it = streams.find(stage.inputs[0]);
      if (input_it == streams.end()) {
        return Internal("planner: unresolved stream " + stage.inputs[0]);
      }

      if (stage.type == BranchType::kMerge) {
        std::vector<int> parents;
        ShapeHWC in_shape = input_it->second.second;
        for (const std::string& input : stage.inputs) {
          auto it = streams.find(input);
          if (it == streams.end()) {
            return Internal("planner: unresolved stream " + input);
          }
          parents.push_back(it->second.first);
        }
        ConcreteOp merge;
        merge.type = ConcreteOpType::kMerge;
        int node = EnsureNode(graph, ViewType::kAugFrame, parents, merge, in_shape,
                              options_.costs.merge_ns_per_pixel *
                                  static_cast<double>(in_shape.h) * in_shape.w * in_shape.c);
        TouchNode(graph, node, t, consumer);
        streams[stage.outputs[0]] = {node, in_shape};
        continue;
      }

      // Which ops run for this stage instance.
      const std::vector<AugOp>* ops = &stage.ops;
      if (stage.type == BranchType::kConditional) {
        ops = nullptr;
        for (const BranchOption& option : stage.branches) {
          if (option.condition.Evaluate(consumer.global_iteration, epoch)) {
            ops = &option.ops;
            break;
          }
        }
        if (ops == nullptr) {
          static const std::vector<AugOp> kNoOps;
          ops = &kNoOps;  // no branch matched: pass through
        }
      } else if (stage.type == BranchType::kRandom) {
        Rng branch_rng(DrawSeed(t, graph.video_name, epoch, sample, s, /*op_index=*/1000));
        double roll = branch_rng.NextDouble();
        double cumulative = 0.0;
        ops = &stage.branches.back().ops;
        for (const BranchOption& option : stage.branches) {
          cumulative += option.prob;
          if (roll < cumulative) {
            ops = &option.ops;
            break;
          }
        }
      }

      // Apply the op chain to every output stream (identical objects fan
      // out for kMulti: outputs alias the same nodes).
      auto [current, cur_shape] = input_it->second;
      for (int op_index = 0; op_index < static_cast<int>(ops->size()); ++op_index) {
        const AugOp& aug = (*ops)[static_cast<size_t>(op_index)];
        uint64_t seed = DrawSeed(t, graph.video_name, epoch, sample, s, op_index);
        SAND_ASSIGN_OR_RETURN(
            auto applied, ApplyOp(graph, current, cur_shape, aug, seed, t, consumer));
        current = applied.first;
        cur_shape = applied.second;
      }
      for (const std::string& output : stage.outputs) {
        streams[output] = {current, cur_shape};
      }
    }

    std::vector<int> leaf_ids;
    for (const std::string& terminal : terminals) {
      auto it = streams.find(terminal);
      if (it == streams.end()) {
        return Internal("planner: unresolved terminal stream " + terminal);
      }
      graph.node(it->second.first).is_leaf = true;
      leaf_ids.push_back(it->second.first);
    }
    return leaf_ids;
  }

  Result<std::pair<int, ShapeHWC>> ApplyOp(VideoObjectGraph& graph, int parent,
                                           ShapeHWC parent_shape, const AugOp& aug,
                                           uint64_t seed, int t, const Consumer& consumer) {
    ConcreteOp op;
    op.type = ConcreteOpType::kAugment;
    op.aug = aug;
    switch (aug.kind) {
      case OpKind::kRandomCrop: {
        // Shared window: sized for the largest crop any task wants, placed
        // by the coordinated seed; this task takes the centered sub-crop.
        int window_h = std::max(max_crop_.h, aug.out_h);
        int window_w = std::max(max_crop_.w, aug.out_w);
        CropWindow window =
            PlanSharedWindow(seed, parent_shape.h, parent_shape.w, window_h, window_w);
        op.crop = SubCrop(window, aug.out_h, aug.out_w);
        break;
      }
      case OpKind::kFlip: {
        Rng rng(seed);
        op.flip_applied = rng.NextBool(aug.prob);
        if (!op.flip_applied) {
          return std::make_pair(parent, parent_shape);  // identity: no node
        }
        break;
      }
      case OpKind::kColorJitter: {
        Rng rng(seed);
        op.jitter_delta = static_cast<int>(rng.NextInRange(-aug.max_delta, aug.max_delta));
        op.jitter_contrast = 1.0 + (rng.NextDouble() * 2.0 - 1.0) * aug.max_contrast;
        break;
      }
      default:
        break;
    }
    ShapeHWC out_shape = OutputShape(op, parent_shape);
    uint64_t out_pixels =
        static_cast<uint64_t>(out_shape.h) * out_shape.w * out_shape.c;
    int node = EnsureNode(graph, ViewType::kAugFrame, {parent}, op, out_shape,
                          options_.costs.AugCost(aug, out_pixels));
    TouchNode(graph, node, t, consumer);
    return std::make_pair(node, out_shape);
  }

  // Finds or creates the node with identity (parents, resolved op).
  int EnsureNode(VideoObjectGraph& graph, ViewType view, std::vector<int> parents,
                 const ConcreteOp& op, ShapeHWC shape, double cost_ns) {
    std::string key;
    for (int parent : parents) {
      key += graph.node(parent).key;
      key += '>';
    }
    key += ResolvedSignature(op);

    auto& key_map = key_maps_[static_cast<size_t>(graph.video_index)];
    auto it = key_map.find(key);
    if (it != key_map.end()) {
      return it->second;
    }
    ConcreteNode node;
    node.id = static_cast<int>(graph.nodes.size());
    node.view = view;
    node.key = std::move(key);
    node.op = op;
    node.parents = parents;
    if (op.type == ConcreteOpType::kDecode) {
      node.source_frame = op.frame_index;
      node.chain_depth = 0;
    } else if (!parents.empty()) {
      const ConcreteNode& first_parent = graph.node(parents[0]);
      node.source_frame = first_parent.source_frame;
      node.chain_depth = first_parent.chain_depth + 1;
    }
    node.height = shape.h;
    node.width = shape.w;
    node.channels = shape.c;
    node.est_stored_bytes = options_.costs.EstimateStoredBytes(node.RawBytes());
    node.op_cost_ns = cost_ns;
    for (int parent : parents) {
      graph.node(parent).children.push_back(node.id);
    }
    graph.nodes.push_back(node);
    key_map[graph.nodes.back().key] = node.id;
    return node.id;
  }

  void TouchNode(VideoObjectGraph& graph, int id, int t, const Consumer& consumer) {
    ConcreteNode& node = graph.node(id);
    node.tasks.insert(t);
    node.consumers.push_back(consumer);
  }

  const DatasetMeta& dataset_;
  std::span<const TaskConfig> tasks_;
  const int64_t epoch_begin_;
  const PlannerOptions& options_;
  std::vector<SamplingConfig> samplings_;
  std::vector<AbstractViewGraph> abstract_;
  MaxCropDims max_crop_;
  std::vector<std::map<std::string, int>> key_maps_;  // per video: key -> node id
};

}  // namespace

std::vector<int> VideoObjectGraph::LeafIds() const {
  std::vector<int> out;
  for (const ConcreteNode& node : nodes) {
    if (node.is_leaf) {
      out.push_back(node.id);
    }
  }
  return out;
}

int64_t VideoObjectGraph::EarliestDeadline(int id) const {
  int64_t earliest = INT64_MAX;
  for (const Consumer& consumer : node(id).consumers) {
    earliest = std::min(earliest, consumer.global_iteration);
  }
  return earliest;
}

OpCounts MaterializationPlan::CountOps() const {
  OpCounts counts;
  for (const VideoObjectGraph& graph : videos) {
    for (const ConcreteNode& node : graph.nodes) {
      uint64_t requested = node.consumers.size();
      switch (node.op.type) {
        case ConcreteOpType::kDecode:
          counts.decode_requested += requested;
          counts.decode_unique += 1;
          break;
        case ConcreteOpType::kAugment:
          counts.aug_requested += requested;
          counts.aug_unique += 1;
          if (node.op.aug.kind == OpKind::kRandomCrop) {
            counts.crop_requested += requested;
            counts.crop_unique += 1;
          }
          break;
        case ConcreteOpType::kMerge:
          counts.aug_requested += requested;
          counts.aug_unique += 1;
          break;
        case ConcreteOpType::kSource:
          break;
      }
    }
  }
  return counts;
}

uint64_t MaterializationPlan::CachedBytes() const {
  uint64_t total = 0;
  for (const VideoObjectGraph& graph : videos) {
    for (const ConcreteNode& node : graph.nodes) {
      if (node.cache && node.op.type != ConcreteOpType::kSource) {
        total += node.est_stored_bytes;
      }
    }
  }
  return total;
}

void MaterializationPlan::ResetCacheFlagsToLeaves() {
  for (VideoObjectGraph& graph : videos) {
    for (ConcreteNode& node : graph.nodes) {
      node.cache = node.is_leaf;
    }
  }
}

int64_t MaterializationPlan::IterationsPerEpoch(int task) const {
  const SamplingConfig& sampling = tasks[static_cast<size_t>(task)].sampling;
  int vpb = std::min(sampling.videos_per_batch, dataset.num_videos());
  return std::max<int64_t>(1, dataset.num_videos() / vpb);
}

const BatchPlan* MaterializationPlan::FindBatch(int task, int64_t epoch,
                                                int64_t iteration) const {
  for (const BatchPlan& batch : batches) {
    if (batch.task == task && batch.epoch == epoch && batch.iteration == iteration) {
      return &batch;
    }
  }
  return nullptr;
}

Result<MaterializationPlan> BuildMaterializationPlan(const DatasetMeta& dataset,
                                                     std::span<const TaskConfig> tasks,
                                                     int64_t epoch_begin,
                                                     const PlannerOptions& options) {
  if (tasks.empty()) {
    return InvalidArgument("planner: no tasks");
  }
  if (options.k_epochs <= 0) {
    return InvalidArgument("planner: k_epochs must be positive");
  }
  return PlanBuilder(dataset, tasks, epoch_begin, options).Build();
}

std::vector<int> FrameSelectionCounts(const MaterializationPlan& plan) {
  std::vector<int> counts(
      static_cast<size_t>(plan.dataset.num_videos()) *
          static_cast<size_t>(plan.dataset.frames_per_video),
      0);
  for (const VideoObjectGraph& graph : plan.videos) {
    for (const ConcreteNode& node : graph.nodes) {
      if (node.op.type == ConcreteOpType::kDecode) {
        size_t slot = static_cast<size_t>(graph.video_index) *
                          static_cast<size_t>(plan.dataset.frames_per_video) +
                      static_cast<size_t>(node.op.frame_index);
        counts[slot] += static_cast<int>(node.consumers.size());
      }
    }
  }
  return counts;
}

}  // namespace sand
