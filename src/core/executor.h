// SubtreeExecutor: turns concrete-graph nodes into pixels.
//
// One executor is created per materialization unit (a pre-materialization
// subtree job, or the demand path assembling a batch's clips from one
// video). It memoizes produced frames for the duration of the unit, reuses
// a single forward-cursor decoder per video, consults the tiered cache for
// nodes flagged `cache`, and stores freshly produced flagged nodes back.
//
// Intra-view parallelism (DESIGN.md §9): MaterializeFlagged groups decode
// nodes by GOP into slices — each slice runs a stateless GopDecoder pass
// from its I-frame, then produces the flagged subtrees rooted in that GOP —
// and runs them with RunAll: concurrently on the decode pool when the
// executor has one, on the calling thread otherwise. The memo is
// mutex-guarded (the lock is never held across recursion or decode work),
// the counters are atomics, and concurrent cache stores stay safe via the
// store's atomic PutIfAbsent.

#ifndef SAND_CORE_EXECUTOR_H_
#define SAND_CORE_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/codec/video_codec.h"
#include "src/common/worker_pool.h"
#include "src/core/container_cache.h"
#include "src/graph/concrete_graph.h"
#include "src/obs/metrics.h"
#include "src/sim/cpu_meter.h"
#include "src/storage/object_store.h"

namespace sand {

// A snapshot of ExecCounters (service stats, baseline sources).
struct ExecutorStats {
  uint64_t frames_decoded = 0;     // frames reconstructed by the codec
  uint64_t decode_ops = 0;         // decode-node materializations
  uint64_t aug_ops = 0;            // augmentation-node materializations
  uint64_t crop_ops = 0;           // random-crop subset of aug_ops
  uint64_t cache_hits = 0;         // nodes served from the tiered cache
  uint64_t cache_stores = 0;       // nodes persisted to the tiered cache
  uint64_t parallel_slices = 0;    // GOP slices MaterializeFlagged ran, pooled or inline
};

// The executor work counts of one owner (a SandService, an
// OnDemandCpuSource), passed to every SubtreeExecutor it creates. Each
// field is an InstanceCounter on "sand.exec.<field>", so one bump moves the
// owner's stats and /.sand/metrics alike.
struct ExecCounters {
  obs::InstanceCounter frames_decoded{"sand.exec.frames_decoded"};
  obs::InstanceCounter decode_ops{"sand.exec.decode_ops"};
  obs::InstanceCounter aug_ops{"sand.exec.aug_ops"};
  obs::InstanceCounter crop_ops{"sand.exec.crop_ops"};
  obs::InstanceCounter cache_hits{"sand.exec.cache_hits"};
  obs::InstanceCounter cache_stores{"sand.exec.cache_stores"};
  obs::InstanceCounter parallel_slices{"sand.exec.parallel_slices"};

  ExecutorStats stats() const;
};

// Custom augmentation registry (§5.5 extensibility): user functions are
// looked up by name for OpKind::kCustom nodes. A CustomOpFn may run
// in-process or proxy to a separate worker process (src/core/rpc_ops.h).
// Thread-safe: ops are looked up from scheduler worker threads while tests
// and long-running services may still be registering.
using CustomOpFn = std::function<Result<Frame>(const Frame& input)>;
class CustomOpRegistry {
 public:
  static CustomOpRegistry& Get();
  Status Register(const std::string& name, CustomOpFn fn);
  Result<CustomOpFn> Lookup(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, CustomOpFn> fns_;
};

class SubtreeExecutor {
 public:
  // `cache` may be null (pure on-demand pipelines). `meter` may be null.
  // `counters` receives the executor's work counts and must outlive it.
  // `decode_pool` may be null (every GOP slice then runs on the calling
  // thread); when set, MaterializeFlagged fans slices out on it. The pool is
  // shared process-wide — a slice the saturated pool refuses runs inline on
  // the calling thread, so executors never deadlock on it.
  SubtreeExecutor(const VideoObjectGraph& graph, ContainerCache* containers,
                  TieredCache* cache, CpuMeter* meter, ExecCounters& counters,
                  WorkerPool* decode_pool = nullptr);

  // Produces the frame for `node_id`, recursively producing parents.
  // `allow_cache_store`: persist flagged nodes produced along the way.
  // `probe_cache` = false skips the cache read for `node_id` itself (its
  // parents still read theirs): a node LoadCached just missed.
  // Thread-safe: concurrent Produce calls share the memo (first writer
  // wins; node materialization is deterministic, so duplicated compute
  // yields identical bytes).
  Result<Frame> Produce(int node_id, bool allow_cache_store, bool probe_cache = true);

  // Reads the cache-flagged nodes among `node_ids` that are not memoized
  // with one cache read (TieredCache::GetManyShared: one peer request per
  // owner node for what the local tiers miss) and memoizes the hits.
  // Returns the nodes it read and missed, for Produce to compute without
  // reading again.
  std::set<int> LoadCached(const std::vector<int>& node_ids);

  // LoadCached in two halves, so that several executors can share one
  // cache read: ListCacheRead names the nodes LoadCached would read and
  // their keys; AcceptCacheRead memoizes what the cache answered for
  // `read.keys` (in order) and returns the nodes that missed.
  struct CacheRead {
    std::vector<int> nodes;
    std::vector<std::string> keys;  // parallel to nodes
  };
  CacheRead ListCacheRead(const std::vector<int>& node_ids);
  std::set<int> AcceptCacheRead(const CacheRead& read,
                                std::span<const Result<SharedBytes>> loaded);

  // Produces and persists every cache-flagged node of the graph (the
  // pre-materialization job body), one GOP slice at a time. Skips nodes
  // already in the cache. With a decode pool, slices run concurrently.
  Status MaterializeFlagged();

 private:
  // Opens (once) and returns the shared forward-cursor decoder. Caller must
  // hold decoder_mutex_.
  Result<VideoDecoder*> EnsureDecoderLocked();

  // Cursor-walk decode of one frame; serialized on decoder_mutex_.
  Result<Frame> Decode(int64_t frame_index);
  Result<Frame> Augment(const ConcreteNode& node, const Frame& input);

  // Tries the tiered cache for a flagged node; returns nullopt on miss.
  std::optional<Result<Frame>> TryCacheLoad(const ConcreteNode& node);
  // Turns what the cache answered for flagged `node` (under `key`) into a
  // memoized frame; nullopt on a miss, or on an undecodable object, which
  // is deleted so the node is recomputed.
  std::optional<Result<Frame>> AcceptCached(const ConcreteNode& node, const std::string& key,
                                            const Result<SharedBytes>& bytes);

  // The post-compute half of Produce: store to the cache if flagged, then
  // memoize (first writer wins) and return the memoized frame.
  Result<Frame> FinishProduced(const ConcreteNode& node, Frame produced, bool allow_cache_store);

  // memo_ insert. Returns the resident frame (the existing one if another
  // thread got there first).
  Frame InsertMemo(int node_id, Frame frame);

  const VideoObjectGraph& graph_;
  ContainerCache* containers_;
  TieredCache* cache_;
  CpuMeter* meter_;
  ExecCounters& counters_;
  WorkerPool* decode_pool_;

  // Guards decoder_ (the forward cursor is single-threaded state). Never
  // held together with mutex_.
  std::mutex decoder_mutex_;
  std::optional<VideoDecoder> decoder_;

  // Guards memo_. Never held across recursion, decode, augment, or cache
  // I/O.
  mutable std::mutex mutex_;
  std::map<int, Frame> memo_;
};

// The cache key of a node's materialized object: deterministic across
// restarts (fault-tolerance recovery relies on this).
std::string NodeCacheKey(const VideoObjectGraph& graph, const ConcreteNode& node);

}  // namespace sand

#endif  // SAND_CORE_EXECUTOR_H_
