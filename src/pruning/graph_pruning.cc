#include "src/pruning/graph_pruning.h"

#include <algorithm>
#include <set>
#include <vector>

namespace sand {
namespace {

// Nodes in the subtree under `id` (excluding `id`), deduplicated: merge
// nodes give the graph DAG shape, so a child can be reachable twice.
std::vector<int> SubtreeBelow(const VideoObjectGraph& graph, int id) {
  std::vector<int> out;
  std::set<int> seen;
  std::vector<int> stack(graph.node(id).children.begin(), graph.node(id).children.end());
  while (!stack.empty()) {
    int current = stack.back();
    stack.pop_back();
    if (!seen.insert(current).second) {
      continue;
    }
    out.push_back(current);
    for (int child : graph.node(current).children) {
      stack.push_back(child);
    }
  }
  return out;
}

// Every node's subtree (SubtreeBelow's list, in its order) and its weight,
// the op costs of that list summed in the same order. Pruning flips only
// cache flags, never edges, so one walk per node serves every round of a
// PruneToBudget, and the sums come out bit-equal to a fresh walk's.
struct Subtrees {
  std::vector<std::vector<int>> below;
  std::vector<double> weight;
};

Subtrees IndexSubtrees(const VideoObjectGraph& graph) {
  Subtrees subtrees;
  subtrees.below.reserve(graph.nodes.size());
  subtrees.weight.reserve(graph.nodes.size());
  for (const ConcreteNode& node : graph.nodes) {
    subtrees.below.push_back(SubtreeBelow(graph, node.id));
    double total = 0;
    for (int id : subtrees.below.back()) {
      total += graph.node(id).op_cost_ns;
    }
    subtrees.weight.push_back(total);
  }
  return subtrees;
}

// One collapse of Algorithm 1 (see PruneGraphOnce) over indexed subtrees.
uint64_t PruneOnce(VideoObjectGraph& graph, const Subtrees& subtrees) {
  // Candidate parents: non-cached, non-leaf nodes with at least one cached
  // node strictly below them (the generalized "parents of leaves").
  std::vector<int> candidates;
  for (const ConcreteNode& node : graph.nodes) {
    if (node.cache) {
      continue;
    }
    for (int below : subtrees.below[static_cast<size_t>(node.id)]) {
      if (graph.node(below).cache) {
        candidates.push_back(node.id);
        break;
      }
    }
  }
  // Rank by subtree edge weight: the cheapest recomputation first
  // (Algorithm 1, SORT-BY-SUBTREE-WEIGHTS).
  std::sort(candidates.begin(), candidates.end(), [&subtrees](int a, int b) {
    return subtrees.weight[static_cast<size_t>(a)] < subtrees.weight[static_cast<size_t>(b)];
  });
  for (int candidate : candidates) {
    const std::vector<int>& below = subtrees.below[static_cast<size_t>(candidate)];
    uint64_t below_cached = 0;
    for (int node : below) {
      if (graph.node(node).cache) {
        below_cached += graph.node(node).est_stored_bytes;
      }
    }
    // The root represents the already-stored encoded video; caching it
    // costs nothing extra.
    uint64_t parent_cost =
        graph.node(candidate).op.type == ConcreteOpType::kSource
            ? 0
            : graph.node(candidate).est_stored_bytes;
    if (below_cached <= parent_cost) {
      continue;  // no net space saving (Algorithm 1: reducedSize <= 0)
    }
    for (int node : below) {
      graph.node(node).cache = false;
    }
    graph.node(candidate).cache =
        graph.node(candidate).op.type != ConcreteOpType::kSource;
    return below_cached - parent_cost;
  }
  return 0;
}

}  // namespace

uint64_t PruneGraphOnce(VideoObjectGraph& graph) {
  return PruneOnce(graph, IndexSubtrees(graph));
}

PruningReport PruneToBudget(MaterializationPlan& plan, uint64_t budget_bytes) {
  PruningReport report;
  report.budget_bytes = budget_bytes;
  report.initial_bytes = plan.CachedBytes();

  // Indexed once, on the first round that reaches a graph.
  std::vector<Subtrees> subtrees(plan.videos.size());
  uint64_t data_size = report.initial_bytes;
  bool progress = true;
  while (data_size > budget_bytes && progress) {
    progress = false;
    ++report.rounds;
    for (size_t v = 0; v < plan.videos.size(); ++v) {
      VideoObjectGraph& graph = plan.videos[v];
      if (subtrees[v].below.empty()) {
        subtrees[v] = IndexSubtrees(graph);
      }
      uint64_t reduced = PruneOnce(graph, subtrees[v]);
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
  report.fits_budget = report.final_bytes <= budget_bytes;
  report.estimated_recompute_ns = EstimatedRecomputeNs(plan);
  return report;
}

namespace {

// Cost of producing node `id` on demand: zero if its object is cached,
// otherwise its own op cost plus the cost of producing its parents.
double OnDemandCost(const VideoObjectGraph& graph, int id, std::vector<double>& memo) {
  if (memo[static_cast<size_t>(id)] >= 0) {
    return memo[static_cast<size_t>(id)];
  }
  const ConcreteNode& node = graph.node(id);
  double cost = 0;
  if (node.op.type != ConcreteOpType::kSource && !node.cache) {
    cost = node.op_cost_ns;
    for (int parent : node.parents) {
      cost += OnDemandCost(graph, parent, memo);
    }
  }
  memo[static_cast<size_t>(id)] = cost;
  return cost;
}

}  // namespace

double EstimatedRecomputeNs(const MaterializationPlan& plan) {
  // Work re-done at serve time: for every leaf use, the cost of deriving
  // the leaf from its nearest cached objects (zero when the leaf itself is
  // cached). This is the quantity Algorithm 1 trades against storage.
  double total = 0;
  for (const VideoObjectGraph& graph : plan.videos) {
    std::vector<double> memo(graph.nodes.size(), -1.0);
    for (const ConcreteNode& node : graph.nodes) {
      if (node.is_leaf) {
        total += OnDemandCost(graph, node.id, memo) *
                 static_cast<double>(std::max<size_t>(node.consumers.size(), 1));
      }
    }
  }
  return total;
}

}  // namespace sand
