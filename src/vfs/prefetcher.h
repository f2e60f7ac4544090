// Prefetcher: pipelined readahead for the demand-feeding path (§7.3).
//
// Training-loop access to batch views is perfectly predictable — the
// trainer walks /{task}/{epoch}/{iter}/view in order — so whenever the
// storage budget forces on-demand materialization, the next k views can be
// speculated while the trainer consumes the current one. The prefetcher
// watches the fd open/read sequence in SandFs: each demand access to a
// batch view triggers speculative ViewProvider::MaterializeAsync calls for
// the predicted successors of that task's stream.
//
// Admission control keeps speculation bounded:
//   - at most `max_inflight` speculative materializations at once
//   - estimated bytes (completed + in-flight, sized from the task's last
//     batch) stay under `budget_bytes`
//   - completed-but-unconsumed results live in a small LRU; overflow is
//     evicted as waste (the service keeps its own copy in the TieredCache,
//     so an evicted speculation can still be served as a cache hit)
//   - closing a task session cancels the task's speculations: results
//     arriving with a stale generation are discarded
//
// Epoch lengths are learned, not configured: a speculation that runs off
// the end of an epoch fails NotFound, teaching the prefetcher the task's
// iterations-per-epoch so later predictions wrap to the next epoch.
//
// Thread-safety: one mutex guards all state; provider calls are made
// outside the lock (speculations are reserved first so concurrent readers
// never double-issue).

#ifndef SAND_VFS_PREFETCHER_H_
#define SAND_VFS_PREFETCHER_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/future.h"
#include "src/graph/view.h"
#include "src/obs/metrics.h"

namespace sand {

class ViewProvider;

struct PrefetchOptions {
  // Readahead depth per task session. 0 disables prefetching (the default:
  // pre-materialization already hides the work when the budget allows it).
  int window = 0;
  // Admission control: concurrent speculative materializations.
  int max_inflight = 8;
  // Admission control: estimated bytes held by speculation (in-flight
  // estimates + completed results).
  uint64_t budget_bytes = 256ULL * 1024 * 1024;
  // Completed-but-unconsumed results kept before LRU eviction.
  size_t completed_capacity = 16;
};

struct PrefetchStats {
  uint64_t issued = 0;         // speculative materializations started
  uint64_t hits = 0;           // demand served from a completed speculation
  uint64_t hits_inflight = 0;  // demand attached to an in-flight speculation
  uint64_t misses = 0;         // prefetching on, but the view was not speculated
  uint64_t wasted = 0;         // speculated but never consumed (evicted/mispredicted)
  uint64_t cancelled = 0;      // dropped by session close
  uint64_t rejected = 0;       // admission-control refusals
};

class Prefetcher {
 public:
  Prefetcher(ViewProvider* provider, PrefetchOptions options);
  ~Prefetcher();

  // Sets the task's readahead window: -1 keeps the configured default,
  // 0 disables, >0 overrides (SandFs::OpenOptions::prefetch_window).
  void ConfigureSession(const std::string& task, int window);

  // Cancels the task's speculations (session close, §7.3 task-end signal).
  void OnSessionClose(const std::string& task);

  // Demand access to a batch view: predict and speculate the next views of
  // this task's stream. Must be called WITHOUT holding fs locks; provider
  // calls happen inside.
  void OnBatchAccess(const ViewPath& path);

  // Consumes a speculation for `path`: a ready future (completed hit), an
  // in-flight future (pipelined hit), or nullopt (miss — the caller
  // materializes on demand). Results pinned via PinResult are returned
  // without being consumed.
  std::optional<Future<SharedBytes>> Take(const ViewPath& path);

  // Keeps `data` for `path` beyond fd close, exempt from LRU eviction
  // (OpenOptions::pin). Dropped when the task's session closes.
  void PinResult(const ViewPath& path, SharedBytes data);

  PrefetchStats stats();
  size_t InFlight();

 private:
  struct Session {
    int window = 0;
    uint64_t generation = 0;
    int64_t iterations_per_epoch = -1;  // learned from end-of-epoch NotFound
    uint64_t last_batch_bytes = 0;      // byte estimate for admission control
  };

  struct Spec {
    std::string task;
    uint64_t generation = 0;
    int64_t epoch = 0;
    int64_t iteration = 0;
    uint64_t estimate = 0;
    Future<SharedBytes> future;  // invalid until issued
    bool consumed = false;       // a demand reader holds the future
  };

  struct Done {
    std::string task;
    uint64_t generation = 0;
    SharedBytes data;
    bool pinned = false;
  };

  void OnSpeculationDone(const std::string& key, const std::string& task, uint64_t generation,
                         const Result<SharedBytes>& result);
  // Caller holds mutex_. Total byte footprint of speculation.
  uint64_t FootprintLocked() const;
  // Caller holds mutex_. Evicts completed overflow (oldest unpinned first).
  void EvictCompletedLocked();

  ViewProvider* provider_;
  const PrefetchOptions options_;

  // Completion callbacks capture a weak reference to this token; a
  // speculation resolving after the prefetcher is destroyed (e.g. a
  // provider torn down with promises still parked) becomes a no-op
  // instead of touching freed state.
  std::shared_ptr<char> liveness_;

  std::mutex mutex_;
  std::map<std::string, Session> sessions_;
  std::map<std::string, Spec> inflight_;
  // LRU of completed results: front = oldest. Pinned entries are skipped
  // by eviction and survive Take.
  std::list<std::pair<std::string, Done>> completed_;
  std::map<std::string, std::list<std::pair<std::string, Done>>::iterator> completed_index_;

  // Read by stats() ("sand.prefetch.<field>" in /.sand/metrics).
  obs::InstanceCounter issued_{"sand.prefetch.issued"};
  obs::InstanceCounter hits_{"sand.prefetch.hits"};
  obs::InstanceCounter hits_inflight_{"sand.prefetch.hits_inflight"};
  obs::InstanceCounter misses_{"sand.prefetch.misses"};
  obs::InstanceCounter wasted_{"sand.prefetch.wasted"};
  obs::InstanceCounter cancelled_{"sand.prefetch.cancelled"};
  obs::InstanceCounter rejected_{"sand.prefetch.rejected"};
  obs::Gauge* inflight_gauge_;
};

}  // namespace sand

#endif  // SAND_VFS_PREFETCHER_H_
