// Timing decorators for the traced run.
//
// The benchmark builds every seam it measures itself, so it can hand the
// program decorated objects instead of changing the program:
//   TimedStore - an ObjectStore around the dataset store, each cache tier
//                and the cluster peer store
//   TimedApi   - a SandApi around the trainer's API (in-process SandFs or
//                SandClient) or the backend a SandServer fronts
// Each verb records one Span (layer, verb, start, end, bytes) in a SpanLog
// kept in memory. The span's trace id is the caller's TraceContext trace
// id; the trainer sets it to the batch index (BatchTraceId) under its own
// per-batch root span, and the program carries the context across its
// pools and scheduler, so spans on other threads land in the same trace.
// Parents are resolved when the log is analysed (ledger.h).
//
// Untraced runs construct none of these.

#ifndef SAND_PERFBENCH_PROBES_H_
#define SAND_PERFBENCH_PROBES_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/object_store.h"
#include "src/vfs/sand_api.h"

namespace perfbench {

// Layers, outermost first; LayerDepth orders them for parent resolution.
enum class Layer : uint8_t {
  kTrainer = 0,   // the trainer's per-batch root span
  kClient,        // SandApi on the trainer's side of a socket
  kVfs,           // SandApi in-process, or the backend behind a SandServer
  kCluster,       // the peer store TieredCache probes (ClusterStore)
  kDataset,       // the encoded-video store
  kMem,           // the cache's memory tier
  kDisk,          // the cache's lower tier
  kCount,
};
inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);

const char* LayerName(Layer layer);
int LayerDepth(Layer layer);

enum class Verb : uint8_t {
  kBatch = 0,
  kOpen,
  kRead,
  kClose,
  kMeta,  // SizeOf / GetXattr / ListDir
  kGet,
  kPut,
  kContains,
  kSize,
  kDelete,
  kCount,
};
inline constexpr int kNumVerbs = static_cast<int>(Verb::kCount);

const char* VerbName(Verb verb);

struct Span {
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;
  Layer layer = Layer::kTrainer;
  Verb verb = Verb::kBatch;
  bool ok = true;
};

// Trace ids the trainer assigns: the batch index with a high tag bit, so
// they never collide with the program's own (small, sequential) ids.
inline constexpr uint64_t kBatchTraceTag = 1ULL << 62;
inline uint64_t BatchTraceId(uint64_t batch_index) { return kBatchTraceTag | batch_index; }
inline bool IsBatchTrace(uint64_t trace_id) { return (trace_id & kBatchTraceTag) != 0; }

// Append-only span store. Spans past `capacity` are dropped and counted;
// callers size windows so that never happens and check dropped().
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) { spans_.reserve(capacity); }

  void Record(const Span& span);
  size_t size();
  uint64_t dropped();
  // True once 7/8 of the capacity is used: windows stop there.
  bool NearlyFull() { return size() + capacity_ / 8 >= capacity_; }
  // Moves the recorded spans out and empties the log.
  std::vector<Span> Take();

 private:
  std::mutex mutex_;  // guards spans_ and dropped_
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  const size_t capacity_;
};

// Records one span on destruction; trace id from the current TraceContext.
class SpanTimer {
 public:
  SpanTimer(SpanLog* log, Layer layer, Verb verb);
  ~SpanTimer();
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  void set_bytes(uint64_t bytes) { span_.bytes = bytes; }
  void set_ok(bool ok) { span_.ok = ok; }

 private:
  SpanLog* log_;
  Span span_;
};

// ObjectStore decorator: forwards every verb to `inner` unchanged and
// records a span for the data verbs. Usage, capacity, listing and rescan
// are forwarded without spans.
class TimedStore : public sand::ObjectStore {
 public:
  TimedStore(std::shared_ptr<sand::ObjectStore> inner, Layer layer, SpanLog* log)
      : inner_(std::move(inner)), layer_(layer), log_(log) {}

  sand::Status Put(const std::string& key, std::span<const uint8_t> data) override;
  sand::Status PutShared(const std::string& key, sand::SharedBytes data) override;
  sand::Result<bool> PutIfAbsent(const std::string& key, std::span<const uint8_t> data) override;
  sand::Result<sand::SharedBytes> GetShared(const std::string& key) override;
  bool Contains(const std::string& key) override;
  sand::Result<uint64_t> SizeOf(const std::string& key) override;
  sand::Status Delete(const std::string& key) override;
  uint64_t UsedBytes() override { return inner_->UsedBytes(); }
  uint64_t CapacityBytes() override { return inner_->CapacityBytes(); }
  std::vector<std::string> ListKeys() override { return inner_->ListKeys(); }
  sand::Status Rescan() override { return inner_->Rescan(); }

 private:
  std::shared_ptr<sand::ObjectStore> inner_;
  const Layer layer_;
  SpanLog* log_;
};

// SandApi decorator: forwards every verb to `inner` unchanged and records a
// span per call. An async read's span ends when its future resolves.
class TimedApi : public sand::SandApi {
 public:
  TimedApi(sand::SandApi* inner, Layer layer, SpanLog* log)
      : inner_(inner), layer_(layer), log_(log) {}

  using sand::SandApi::Open;
  sand::Result<int> Open(const std::string& path, const sand::OpenOptions& options) override;
  sand::Result<size_t> Read(int fd, std::span<uint8_t> buffer) override;
  sand::Result<size_t> PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) override;
  sand::Result<sand::SharedBytes> ReadAllShared(int fd) override;
  sand::Future<sand::SharedBytes> ReadAllSharedAsync(int fd) override;
  sand::Result<uint64_t> SizeOf(int fd) override;
  sand::Result<std::string> GetXattr(int fd, const std::string& name) override;
  sand::Result<std::vector<std::string>> ListDir(const std::string& path) override;
  sand::Status Close(int fd) override;

 private:
  sand::SandApi* inner_;
  const Layer layer_;
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // SAND_PERFBENCH_PROBES_H_
