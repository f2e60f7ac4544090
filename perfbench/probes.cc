#include "probes.h"

#include "src/common/trace_context.h"
#include "sysstat.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTrainer:
      return "trainer";
    case Layer::kClient:
      return "net.client";
    case Layer::kVfs:
      return "vfs";
    case Layer::kCluster:
      return "cluster";
    case Layer::kDataset:
      return "storage.dataset";
    case Layer::kMem:
      return "storage.mem";
    case Layer::kDisk:
      return "storage.disk";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

int LayerDepth(Layer layer) {
  switch (layer) {
    case Layer::kTrainer:
      return 0;
    case Layer::kClient:
      return 1;
    case Layer::kVfs:
      return 2;
    default:
      return 3;  // the stores are leaves; none calls another decorated store
  }
}

const char* VerbName(Verb verb) {
  static constexpr const char* kNames[] = {"batch", "open", "read",     "close", "meta",
                                           "get",   "put",  "contains", "size",  "delete"};
  int index = static_cast<int>(verb);
  return index < kNumVerbs ? kNames[index] : "unknown";
}

void SpanLog::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

size_t SpanLog::size() {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

uint64_t SpanLog::dropped() {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  out.swap(spans_);
  spans_.reserve(capacity_);
  dropped_ = 0;
  return out;
}

SpanTimer::SpanTimer(SpanLog* log, Layer layer, Verb verb) : log_(log) {
  span_.trace_id = sand::CurrentTraceContext().trace_id;
  span_.layer = layer;
  span_.verb = verb;
  span_.start_ns = NowNs();
}

SpanTimer::~SpanTimer() {
  span_.end_ns = NowNs();
  log_->Record(span_);
}

// --- TimedStore ----------------------------------------------------------------

sand::Status TimedStore::Put(const std::string& key, std::span<const uint8_t> data) {
  SpanTimer timer(log_, layer_, Verb::kPut);
  timer.set_bytes(data.size());
  sand::Status status = inner_->Put(key, data);
  timer.set_ok(status.ok());
  return status;
}

sand::Status TimedStore::PutShared(const std::string& key, sand::SharedBytes data) {
  SpanTimer timer(log_, layer_, Verb::kPut);
  timer.set_bytes(data != nullptr ? data->size() : 0);
  sand::Status status = inner_->PutShared(key, std::move(data));
  timer.set_ok(status.ok());
  return status;
}

sand::Result<bool> TimedStore::PutIfAbsent(const std::string& key,
                                           std::span<const uint8_t> data) {
  SpanTimer timer(log_, layer_, Verb::kPut);
  timer.set_bytes(data.size());
  sand::Result<bool> inserted = inner_->PutIfAbsent(key, data);
  timer.set_ok(inserted.ok());
  return inserted;
}

sand::Result<sand::SharedBytes> TimedStore::GetShared(const std::string& key) {
  SpanTimer timer(log_, layer_, Verb::kGet);
  sand::Result<sand::SharedBytes> bytes = inner_->GetShared(key);
  timer.set_ok(bytes.ok());
  if (bytes.ok()) {
    timer.set_bytes((*bytes)->size());
  }
  return bytes;
}

bool TimedStore::Contains(const std::string& key) {
  SpanTimer timer(log_, layer_, Verb::kContains);
  bool present = inner_->Contains(key);
  timer.set_ok(present);
  return present;
}

sand::Result<uint64_t> TimedStore::SizeOf(const std::string& key) {
  SpanTimer timer(log_, layer_, Verb::kSize);
  sand::Result<uint64_t> size = inner_->SizeOf(key);
  timer.set_ok(size.ok());
  return size;
}

sand::Status TimedStore::Delete(const std::string& key) {
  SpanTimer timer(log_, layer_, Verb::kDelete);
  sand::Status status = inner_->Delete(key);
  timer.set_ok(status.ok());
  return status;
}

// --- TimedApi ------------------------------------------------------------------

sand::Result<int> TimedApi::Open(const std::string& path, const sand::OpenOptions& options) {
  SpanTimer timer(log_, layer_, Verb::kOpen);
  sand::Result<int> fd = inner_->Open(path, options);
  timer.set_ok(fd.ok());
  return fd;
}

sand::Result<size_t> TimedApi::Read(int fd, std::span<uint8_t> buffer) {
  SpanTimer timer(log_, layer_, Verb::kRead);
  sand::Result<size_t> n = inner_->Read(fd, buffer);
  timer.set_ok(n.ok());
  if (n.ok()) {
    timer.set_bytes(*n);
  }
  return n;
}

sand::Result<size_t> TimedApi::PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) {
  SpanTimer timer(log_, layer_, Verb::kRead);
  sand::Result<size_t> n = inner_->PRead(fd, buffer, offset);
  timer.set_ok(n.ok());
  if (n.ok()) {
    timer.set_bytes(*n);
  }
  return n;
}

sand::Result<sand::SharedBytes> TimedApi::ReadAllShared(int fd) {
  SpanTimer timer(log_, layer_, Verb::kRead);
  sand::Result<sand::SharedBytes> bytes = inner_->ReadAllShared(fd);
  timer.set_ok(bytes.ok());
  if (bytes.ok()) {
    timer.set_bytes((*bytes)->size());
  }
  return bytes;
}

sand::Future<sand::SharedBytes> TimedApi::ReadAllSharedAsync(int fd) {
  Span span;
  span.trace_id = sand::CurrentTraceContext().trace_id;
  span.layer = layer_;
  span.verb = Verb::kRead;
  span.start_ns = NowNs();
  sand::Future<sand::SharedBytes> future = inner_->ReadAllSharedAsync(fd);
  future.OnReady([log = log_, span](const sand::Result<sand::SharedBytes>& result) mutable {
    span.end_ns = NowNs();
    span.ok = result.ok();
    if (result.ok()) {
      span.bytes = (*result)->size();
    }
    log->Record(span);
  });
  return future;
}

sand::Result<uint64_t> TimedApi::SizeOf(int fd) {
  SpanTimer timer(log_, layer_, Verb::kMeta);
  sand::Result<uint64_t> size = inner_->SizeOf(fd);
  timer.set_ok(size.ok());
  return size;
}

sand::Result<std::string> TimedApi::GetXattr(int fd, const std::string& name) {
  SpanTimer timer(log_, layer_, Verb::kMeta);
  sand::Result<std::string> value = inner_->GetXattr(fd, name);
  timer.set_ok(value.ok());
  return value;
}

sand::Result<std::vector<std::string>> TimedApi::ListDir(const std::string& path) {
  SpanTimer timer(log_, layer_, Verb::kMeta);
  sand::Result<std::vector<std::string>> entries = inner_->ListDir(path);
  timer.set_ok(entries.ok());
  return entries;
}

sand::Status TimedApi::Close(int fd) {
  SpanTimer timer(log_, layer_, Verb::kClose);
  sand::Status status = inner_->Close(fd);
  timer.set_ok(status.ok());
  return status;
}

}  // namespace perfbench
