#include "src/storage/object_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <thread>

#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/common/worker_pool.h"
#include "src/obs/trace.h"

namespace sand {

namespace fs = std::filesystem;

namespace {

// Class-level store op counters (all instances of a store class share
// them; the "sand.cache.*" family carries the per-tier cache semantics).
struct StoreMetrics {
  obs::Counter* gets;
  obs::Counter* puts;
  obs::Counter* bytes_read;
  obs::Counter* bytes_written;

  static const StoreMetrics& Memory() {
    static const StoreMetrics metrics{
        obs::Registry::Get().GetCounter("sand.store.memory.gets"),
        obs::Registry::Get().GetCounter("sand.store.memory.puts"),
        obs::Registry::Get().GetCounter("sand.store.memory.bytes_read"),
        obs::Registry::Get().GetCounter("sand.store.memory.bytes_written"),
    };
    return metrics;
  }
  static const StoreMetrics& Disk() {
    static const StoreMetrics metrics{
        obs::Registry::Get().GetCounter("sand.store.disk.gets"),
        obs::Registry::Get().GetCounter("sand.store.disk.puts"),
        obs::Registry::Get().GetCounter("sand.store.disk.bytes_read"),
        obs::Registry::Get().GetCounter("sand.store.disk.bytes_written"),
    };
    return metrics;
  }
};

// Objects dropped from the index because their file failed CRC/footer
// verification or vanished while indexed (DESIGN.md §10).
obs::Counter* DiskQuarantined() {
  static obs::Counter* counter =
      obs::Registry::Get().GetCounter("sand.store.disk.quarantined");
  return counter;
}

// Delta-based capacity reservation shared by the sharded stores: only the
// growth (incoming - existing) is reserved, and a shrink releases the
// difference immediately — so a same-size overwrite is a no-op against the
// capacity check. The old fetch_add(incoming)-then-credit-existing scheme
// transiently double-counted overwrites, making concurrent same-size
// overwrites near capacity spuriously fail with ResourceExhausted.
// Caller holds the shard lock for the key being (re)written.
Status ReserveDelta(std::atomic<uint64_t>& used, uint64_t capacity, uint64_t incoming,
                    uint64_t existing, const char* what) {
  if (incoming <= existing) {
    used.fetch_sub(existing - incoming, std::memory_order_relaxed);
    return Status::Ok();
  }
  const uint64_t delta = incoming - existing;
  const uint64_t prev = used.fetch_add(delta, std::memory_order_relaxed);
  if (prev + delta > capacity) {
    used.fetch_sub(delta, std::memory_order_relaxed);
    return ResourceExhausted(StrFormat("%s over capacity (%llu + %llu > %llu)", what,
                                       static_cast<unsigned long long>(prev),
                                       static_cast<unsigned long long>(incoming),
                                       static_cast<unsigned long long>(capacity)));
  }
  return Status::Ok();
}

// Undoes a successful ReserveDelta after the write it covered failed (the
// previously visible object, if any, is still the live one).
void RollbackReserve(std::atomic<uint64_t>& used, uint64_t incoming, uint64_t existing) {
  if (incoming >= existing) {
    used.fetch_sub(incoming - existing, std::memory_order_relaxed);
  } else {
    used.fetch_add(existing - incoming, std::memory_order_relaxed);
  }
}

// --- DiskStore object-file footer -------------------------------------------
// Layout: [payload][magic(4) "SOB1"][crc32-of-payload(4, LE)][payload_size(8, LE)]

constexpr uint8_t kFooterMagic[4] = {'S', 'O', 'B', '1'};

std::array<uint8_t, DiskStore::kFooterSize> MakeFooter(std::span<const uint8_t> payload) {
  std::array<uint8_t, DiskStore::kFooterSize> footer{};
  std::memcpy(footer.data(), kFooterMagic, 4);
  const uint32_t crc = Crc32(payload);
  const uint64_t size = payload.size();
  for (int i = 0; i < 4; ++i) {
    footer[4 + static_cast<size_t>(i)] = static_cast<uint8_t>((crc >> (8 * i)) & 0xFF);
  }
  for (int i = 0; i < 8; ++i) {
    footer[8 + static_cast<size_t>(i)] = static_cast<uint8_t>((size >> (8 * i)) & 0xFF);
  }
  return footer;
}

// Checks that `file` is a well-formed object (payload + matching footer);
// on success stores the payload length in `payload_size`.
bool ValidateObjectBytes(std::span<const uint8_t> file, uint64_t* payload_size) {
  if (file.size() < DiskStore::kFooterSize) {
    return false;
  }
  const uint8_t* footer = file.data() + file.size() - DiskStore::kFooterSize;
  if (std::memcmp(footer, kFooterMagic, 4) != 0) {
    return false;
  }
  uint32_t crc = 0;
  for (int i = 3; i >= 0; --i) {
    crc = (crc << 8) | footer[4 + static_cast<size_t>(i)];
  }
  uint64_t size = 0;
  for (int i = 7; i >= 0; --i) {
    size = (size << 8) | footer[8 + static_cast<size_t>(i)];
  }
  if (size != file.size() - DiskStore::kFooterSize) {
    return false;
  }
  if (Crc32(file.first(size)) != crc) {
    return false;
  }
  *payload_size = size;
  return true;
}

Status WriteAll(int fd, std::span<const uint8_t> bytes, const std::string& path) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return DataLoss("short write to " + path + ": " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// Whole file as bytes, or nullopt when it cannot be opened/read.
std::optional<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (in.bad()) {
    return std::nullopt;
  }
  return bytes;
}

}  // namespace

// --- ObjectStore defaults ----------------------------------------------------

Status ObjectStore::PutShared(const std::string& key, SharedBytes data) {
  if (data == nullptr) {
    return InvalidArgument("PutShared: null buffer");
  }
  return Put(key, *data);
}

std::vector<Result<SharedBytes>> ObjectStore::GetManyShared(std::span<const std::string> keys) {
  std::vector<Result<SharedBytes>> results;
  results.reserve(keys.size());
  for (const std::string& key : keys) {
    results.push_back(GetShared(key));
  }
  return results;
}

Result<bool> ObjectStore::PutIfAbsent(const std::string& key, std::span<const uint8_t> data) {
  // Best-effort default for stores without native support; sharded stores
  // override this with an atomic check-and-insert.
  if (Contains(key)) {
    return false;
  }
  SAND_RETURN_IF_ERROR(Put(key, data));
  return true;
}

// --- MemoryStore -----------------------------------------------------------

MemoryStore::MemoryStore(uint64_t capacity_bytes, size_t num_shards)
    : capacity_(capacity_bytes), shards_(std::max<size_t>(num_shards, 1)) {}

Status MemoryStore::Reserve(uint64_t incoming, uint64_t existing, const char* what) {
  return ReserveDelta(used_, capacity_, incoming, existing, what);
}

Status MemoryStore::PutShared(const std::string& key, SharedBytes data) {
  if (data == nullptr) {
    return InvalidArgument("PutShared: null buffer");
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.objects.find(key);
  uint64_t existing = it != shard.objects.end() ? it->second->size() : 0;
  SAND_RETURN_IF_ERROR(Reserve(data->size(), existing, "memory store"));
  StoreMetrics::Memory().puts->Add(1);
  StoreMetrics::Memory().bytes_written->Add(data->size());
  shard.objects[key] = std::move(data);
  return Status::Ok();
}

Status MemoryStore::Put(const std::string& key, std::span<const uint8_t> data) {
  return PutShared(key, std::make_shared<std::vector<uint8_t>>(data.begin(), data.end()));
}

Result<bool> MemoryStore::PutIfAbsent(const std::string& key, std::span<const uint8_t> data) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.objects.count(key) > 0) {
    return false;
  }
  SAND_RETURN_IF_ERROR(Reserve(data.size(), 0, "memory store"));
  StoreMetrics::Memory().puts->Add(1);
  StoreMetrics::Memory().bytes_written->Add(data.size());
  shard.objects.emplace(key,
                        std::make_shared<std::vector<uint8_t>>(data.begin(), data.end()));
  return true;
}

Result<SharedBytes> MemoryStore::GetShared(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.objects.find(key);
  if (it == shard.objects.end()) {
    return NotFound("no object: " + key);
  }
  StoreMetrics::Memory().gets->Add(1);
  StoreMetrics::Memory().bytes_read->Add(it->second->size());
  return it->second;  // reference to the cached allocation, no copy
}

bool MemoryStore::Contains(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.objects.count(key) > 0;
}

Result<uint64_t> MemoryStore::SizeOf(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.objects.find(key);
  if (it == shard.objects.end()) {
    return NotFound("no object: " + key);
  }
  return static_cast<uint64_t>(it->second->size());
}

Status MemoryStore::Delete(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.objects.find(key);
  if (it == shard.objects.end()) {
    return NotFound("no object: " + key);
  }
  used_.fetch_sub(it->second->size(), std::memory_order_relaxed);
  shard.objects.erase(it);
  return Status::Ok();
}

std::vector<std::string> MemoryStore::ListKeys() {
  std::vector<std::string> keys;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, value] : shard.objects) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// --- DiskStore ---------------------------------------------------------------

DiskStore::DiskStore(std::string root, uint64_t capacity_bytes)
    : root_(std::move(root)), capacity_(capacity_bytes), shards_(kDefaultStoreShards) {}

Result<std::unique_ptr<DiskStore>> DiskStore::Open(const std::string& root,
                                                   uint64_t capacity_bytes) {
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    return Unavailable("cannot create store root " + root + ": " + ec.message());
  }
  auto store = std::unique_ptr<DiskStore>(new DiskStore(root, capacity_bytes));
  Status status = store->Rescan();
  if (!status.ok()) {
    return status;
  }
  return store;
}

Result<std::string> DiskStore::PathFor(const std::string& key) const {
  // Keys may contain '/'; they map to subdirectories. Components are
  // normalized (empty and "." components dropped, so leading slashes keep
  // keys inside the root) and ".." is rejected outright: a key must resolve
  // inside `root_`, never escape it.
  std::string clean;
  clean.reserve(key.size());
  size_t start = 0;
  while (start <= key.size()) {
    size_t end = key.find('/', start);
    if (end == std::string::npos) {
      end = key.size();
    }
    std::string_view comp(key.data() + start, end - start);
    if (!comp.empty() && comp != ".") {
      if (comp == "..") {
        return InvalidArgument("key escapes store root: " + key);
      }
      if (clean.empty() && (comp == kTmpDir || comp == kQuarantineDir)) {
        return InvalidArgument("key uses reserved store prefix: " + key);
      }
      if (!clean.empty()) {
        clean.push_back('/');
      }
      clean.append(comp);
    }
    start = end + 1;
  }
  if (clean.empty()) {
    return InvalidArgument("empty key");
  }
  return root_ + "/" + clean;
}

Status DiskStore::WriteObject(const std::string& path, std::span<const uint8_t> data,
                              bool crash_before_rename) {
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) {
    return Unavailable("mkdir failed for " + path + ": " + ec.message());
  }
  const std::string tmp_dir = root_ + "/" + kTmpDir;
  fs::create_directories(tmp_dir, ec);
  if (ec) {
    return Unavailable("mkdir failed for " + tmp_dir + ": " + ec.message());
  }
  // Unique temp name; published (or abandoned, on crash) with one rename.
  const std::string tmp = StrFormat(
      "%s/%d-%llu.tmp", tmp_dir.c_str(), static_cast<int>(::getpid()),
      static_cast<unsigned long long>(tmp_seq_.fetch_add(1, std::memory_order_relaxed)));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    return Unavailable("cannot open " + tmp + " for writing: " + std::strerror(errno));
  }
  Status written = WriteAll(fd, data, tmp);
  if (written.ok()) {
    written = WriteAll(fd, MakeFooter(data), tmp);
  }
  if (written.ok() && ::fsync(fd) != 0) {
    written = Unavailable("fsync failed for " + tmp + ": " + std::strerror(errno));
  }
  ::close(fd);
  if (!written.ok()) {
    ::unlink(tmp.c_str());
    return written;
  }
  if (crash_before_rename) {
    // Fault injection: the payload is fully written but never published —
    // exactly the state a crash between write and rename leaves behind.
    // Rescan() sweeps the abandoned temp file.
    return Unavailable("injected crash before rename: " + path);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status status = Unavailable("rename failed for " + path + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return status;
  }
  return Status::Ok();
}

Status DiskStore::Put(const std::string& key, std::span<const uint8_t> data) {
  SAND_ASSIGN_OR_RETURN(std::string path, PathFor(key));
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.sizes.find(key);
  uint64_t existing = it != shard.sizes.end() ? it->second : 0;
  SAND_RETURN_IF_ERROR(ReserveDelta(used_, capacity_, data.size(), existing, "disk store"));
  Status written = WriteObject(path, data, /*crash_before_rename=*/false);
  if (!written.ok()) {
    // The rename never happened, so the old object (if any) is still the
    // visible file; restore its accounting.
    RollbackReserve(used_, data.size(), existing);
    return written;
  }
  StoreMetrics::Disk().puts->Add(1);
  StoreMetrics::Disk().bytes_written->Add(data.size());
  shard.sizes[key] = data.size();
  return Status::Ok();
}

Result<bool> DiskStore::PutIfAbsent(const std::string& key, std::span<const uint8_t> data) {
  SAND_ASSIGN_OR_RETURN(std::string path, PathFor(key));
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.sizes.count(key) > 0) {
    return false;
  }
  SAND_RETURN_IF_ERROR(ReserveDelta(used_, capacity_, data.size(), 0, "disk store"));
  Status written = WriteObject(path, data, /*crash_before_rename=*/false);
  if (!written.ok()) {
    RollbackReserve(used_, data.size(), 0);
    return written;
  }
  StoreMetrics::Disk().puts->Add(1);
  StoreMetrics::Disk().bytes_written->Add(data.size());
  shard.sizes[key] = data.size();
  return true;
}

Status DiskStore::PutCrashBeforeRename(const std::string& key, std::span<const uint8_t> data) {
  SAND_ASSIGN_OR_RETURN(std::string path, PathFor(key));
  Status written = WriteObject(path, data, /*crash_before_rename=*/true);
  // WriteObject never publishes in crash mode; visible state is untouched.
  return written.ok() ? Unavailable("crash injection did not fire: " + key) : written;
}

Result<SharedBytes> DiskStore::GetShared(const std::string& key) {
  SAND_ASSIGN_OR_RETURN(std::string path, PathFor(key));
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.sizes.find(key) == shard.sizes.end()) {
      return NotFound("no object: " + key);
    }
  }
  // Read outside the lock so different keys stream from disk in parallel.
  // The atomic-rename publish protocol makes this safe against a concurrent
  // overwrite: an opened file is always one complete object version (the
  // old inode survives until our descriptor closes), never a torn mix.
  std::optional<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.has_value()) {
    // The file vanished under us. Either a concurrent Delete won the race
    // (its shard-locked erase means the entry is gone once we re-check) —
    // a plain NotFound, not DataLoss — or the file is genuinely lost while
    // still indexed, in which case we drop the stale entry instead of
    // serving DataLoss forever.
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.sizes.find(key);
    if (it != shard.sizes.end()) {
      used_.fetch_sub(it->second, std::memory_order_relaxed);
      shard.sizes.erase(it);
      DiskQuarantined()->Add(1);
      SAND_LOG(kWarning) << "disk store dropped vanished object: " << key;
    }
    return NotFound("no object: " + key);
  }
  uint64_t payload_size = 0;
  if (!ValidateObjectBytes(*bytes, &payload_size)) {
    Quarantine(key, path, "footer/CRC verification failed");
    return NotFound("corrupt object quarantined: " + key);
  }
  bytes->resize(payload_size);
  StoreMetrics::Disk().gets->Add(1);
  StoreMetrics::Disk().bytes_read->Add(payload_size);
  return MakeSharedBytes(std::move(*bytes));
}

void DiskStore::Quarantine(const std::string& key, const std::string& path,
                           const char* reason) {
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.sizes.find(key);
    if (it != shard.sizes.end()) {
      used_.fetch_sub(it->second, std::memory_order_relaxed);
      shard.sizes.erase(it);
    }
    // Move the file while still holding the shard lock so a concurrent
    // Put's freshly renamed object cannot be swept aside between our erase
    // and the move.
    MoveToQuarantine(path);
  }
  SAND_LOG(kWarning) << "disk store quarantined " << key << ": " << reason;
}

void DiskStore::MoveToQuarantine(const std::string& path) {
  SAND_SPAN("disk_quarantine");
  std::error_code ec;
  const std::string dir = root_ + "/" + kQuarantineDir;
  fs::create_directories(dir, ec);
  std::string flat = fs::relative(path, root_, ec).generic_string();
  std::replace(flat.begin(), flat.end(), '/', '_');
  const std::string dest = StrFormat(
      "%s/%llu-%s", dir.c_str(),
      static_cast<unsigned long long>(tmp_seq_.fetch_add(1, std::memory_order_relaxed)),
      flat.c_str());
  fs::rename(path, dest, ec);
  if (ec) {
    fs::remove(path, ec);
  }
  DiskQuarantined()->Add(1);
}

bool DiskStore::Contains(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.sizes.count(key) > 0;
}

Result<uint64_t> DiskStore::SizeOf(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.sizes.find(key);
  if (it == shard.sizes.end()) {
    return NotFound("no object: " + key);
  }
  return it->second;
}

Status DiskStore::Delete(const std::string& key) {
  SAND_ASSIGN_OR_RETURN(std::string path, PathFor(key));
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.sizes.find(key);
  if (it == shard.sizes.end()) {
    return NotFound("no object: " + key);
  }
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) {
    // The file is still there and still readable: leave the index and the
    // accounting untouched so state stays consistent, and let the caller
    // retry. Erasing here would leak the on-disk file and desync used_.
    return Unavailable("delete failed for " + key + ": " + ec.message());
  }
  // A false return (file already gone) still erases: the entry was stale.
  used_.fetch_sub(it->second, std::memory_order_relaxed);
  shard.sizes.erase(it);
  return Status::Ok();
}

std::vector<std::string> DiskStore::ListKeys() {
  std::vector<std::string> keys;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, size] : shard.sizes) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

Status DiskStore::Rescan() {
  // Recovery path: take every shard lock (in index order, so per-key ops
  // holding a single shard lock cannot deadlock against us), rebuild the
  // whole index from the directory tree atomically. Every candidate file's
  // CRC footer is verified — a half-written or bit-rotted survivor of a
  // crash is quarantined, never indexed — and temp files abandoned by a
  // crash-before-rename are swept.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& shard : shards_) {
    locks.emplace_back(shard.mutex);
    shard.sizes.clear();
  }
  const std::string tmp_prefix = std::string(kTmpDir) + "/";
  const std::string quarantine_prefix = std::string(kQuarantineDir) + "/";
  uint64_t used = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code entry_ec;
    if (!it->is_regular_file(entry_ec)) {
      continue;
    }
    std::string rel = fs::relative(it->path(), root_, entry_ec).generic_string();
    if (rel.rfind(tmp_prefix, 0) == 0) {
      fs::remove(it->path(), entry_ec);  // abandoned mid-write temp file
      continue;
    }
    if (rel.rfind(quarantine_prefix, 0) == 0) {
      continue;  // already set aside; kept for post-mortem inspection
    }
    std::optional<std::vector<uint8_t>> bytes = ReadFileBytes(it->path().string());
    uint64_t payload_size = 0;
    if (!bytes.has_value() || !ValidateObjectBytes(*bytes, &payload_size)) {
      SAND_LOG(kWarning) << "rescan quarantined " << rel;
      MoveToQuarantine(it->path().string());
      continue;
    }
    ShardFor(rel).sizes[rel] = payload_size;
    used += payload_size;
  }
  used_.store(used, std::memory_order_relaxed);
  if (ec) {
    return Unavailable("rescan failed: " + ec.message());
  }
  return Status::Ok();
}

// --- RemoteStore -------------------------------------------------------------

RemoteStore::RemoteStore(std::shared_ptr<ObjectStore> backing, double bandwidth_bytes_per_sec,
                         Nanos latency_per_op)
    : backing_(std::move(backing)), bandwidth_(bandwidth_bytes_per_sec), latency_(latency_per_op) {}

void RemoteStore::ChargeTransfer(uint64_t bytes) {
  Nanos transfer = latency_;
  if (bandwidth_ > 0) {
    transfer += static_cast<Nanos>(static_cast<double>(bytes) / bandwidth_ * kNanosPerSecond);
  }
  if (transfer > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(transfer));
  }
}

Status RemoteStore::Put(const std::string& key, std::span<const uint8_t> data) {
  ChargeTransfer(data.size());
  Status status = backing_->Put(key, data);
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    traffic_.bytes_written += data.size();
    ++traffic_.write_ops;
  }
  return status;
}

Result<bool> RemoteStore::PutIfAbsent(const std::string& key, std::span<const uint8_t> data) {
  ChargeTransfer(data.size());
  Result<bool> inserted = backing_->PutIfAbsent(key, data);
  if (inserted.ok() && *inserted) {
    std::lock_guard<std::mutex> lock(mutex_);
    traffic_.bytes_written += data.size();
    ++traffic_.write_ops;
  }
  return inserted;
}

Result<SharedBytes> RemoteStore::GetShared(const std::string& key) {
  Result<SharedBytes> result = backing_->GetShared(key);
  if (result.ok()) {
    ChargeTransfer((*result)->size());
    std::lock_guard<std::mutex> lock(mutex_);
    traffic_.bytes_read += (*result)->size();
    ++traffic_.read_ops;
  }
  return result;
}

bool RemoteStore::Contains(const std::string& key) { return backing_->Contains(key); }

Result<uint64_t> RemoteStore::SizeOf(const std::string& key) { return backing_->SizeOf(key); }

Status RemoteStore::Delete(const std::string& key) { return backing_->Delete(key); }

uint64_t RemoteStore::UsedBytes() { return backing_->UsedBytes(); }

uint64_t RemoteStore::CapacityBytes() { return backing_->CapacityBytes(); }

std::vector<std::string> RemoteStore::ListKeys() { return backing_->ListKeys(); }

RemoteTraffic RemoteStore::traffic() {
  std::lock_guard<std::mutex> lock(mutex_);
  return traffic_;
}

void RemoteStore::ResetTraffic() {
  std::lock_guard<std::mutex> lock(mutex_);
  traffic_ = RemoteTraffic{};
}

// --- GuardedStore ------------------------------------------------------------

GuardedStore::GuardedStore(std::shared_ptr<ObjectStore> backing, std::string name,
                           DiskFaultPolicy policy, bool (*transient)(const Status&),
                           obs::Counter* retries, std::function<void(bool offline)> on_state_change)
    : backing_(std::move(backing)),
      name_(std::move(name)),
      transient_(transient),
      retries_(retries),
      breaker_(policy, [this, on_state_change = std::move(on_state_change)](bool offline,
                                                                            int streak) {
        if (offline) {
          SAND_LOG(kWarning) << name_ << " marked offline after " << streak
                             << " consecutive failures; ops fail fast until a probe succeeds";
        } else {
          SAND_LOG(kInfo) << name_ << " back online";
        }
        if (on_state_change) {
          on_state_change(offline);
        }
      }) {}

template <typename Fn>
auto GuardedStore::Guard(const std::string& what, Fn&& op) -> decltype(op()) {
  using R = decltype(op());
  if (!breaker_.Allow()) {
    return R(Unavailable(name_ + " offline: " + what));
  }
  R result = breaker_.Run(std::forward<Fn>(op), transient_, retries_);
  if (transient_(StatusOf(result))) {
    return R(Unavailable(name_ + " unreachable: " + StatusOf(result).message()));
  }
  return result;
}

Status GuardedStore::Put(const std::string& key, std::span<const uint8_t> data) {
  return Guard(key, [&] { return backing_->Put(key, data); });
}

Status GuardedStore::PutShared(const std::string& key, SharedBytes data) {
  return Guard(key, [&] { return backing_->PutShared(key, data); });
}

Result<bool> GuardedStore::PutIfAbsent(const std::string& key, std::span<const uint8_t> data) {
  return Guard(key, [&] { return backing_->PutIfAbsent(key, data); });
}

Result<SharedBytes> GuardedStore::GetShared(const std::string& key) {
  return Guard(key, [&] { return backing_->GetShared(key); });
}

std::vector<Result<SharedBytes>> GuardedStore::GetManyShared(std::span<const std::string> keys) {
  if (keys.empty()) {
    return {};
  }
  std::vector<Result<SharedBytes>> results;
  const Status request = Guard(std::to_string(keys.size()) + " keys", [&]() -> Status {
    results = backing_->GetManyShared(keys);
    for (const Result<SharedBytes>& result : results) {
      if (transient_(result.status())) {
        return result.status();
      }
    }
    return Status::Ok();
  });
  if (!request.ok()) {
    // Refused while offline (no answers at all), or still failing after
    // the retries.
    results.resize(keys.size(), Result<SharedBytes>(request));
    for (Result<SharedBytes>& result : results) {
      if (transient_(result.status())) {
        result = request;
      }
    }
  }
  return results;
}

bool GuardedStore::Contains(const std::string& key) {
  return !breaker_.offline() && backing_->Contains(key);
}

Result<uint64_t> GuardedStore::SizeOf(const std::string& key) {
  return Guard(key, [&] { return backing_->SizeOf(key); });
}

Status GuardedStore::Delete(const std::string& key) {
  return Guard(key, [&] { return backing_->Delete(key); });
}

// --- TieredCache -------------------------------------------------------------

namespace {

// Infrastructure failures worth retrying / tripping the breaker on. NotFound
// and capacity errors are healthy responses from a working tier.
bool TransientDiskError(const Status& status) {
  return status.code() == ErrorCode::kUnavailable || status.code() == ErrorCode::kDataLoss;
}

}  // namespace

TieredCache::TieredCache(std::shared_ptr<ObjectStore> memory, std::shared_ptr<ObjectStore> disk,
                         DiskFaultPolicy fault_policy)
    : memory_(std::move(memory)),
      disk_(std::move(disk), "disk tier", fault_policy, TransientDiskError,
            obs::Registry::Get().GetCounter("sand.store.disk.retries"),
            [degraded = obs::Registry::Get().GetGauge("sand.store.disk.degraded")](
                bool offline) { degraded->Set(offline ? 1 : 0); }),
      memory_hits_(obs::Registry::Get().GetCounter("sand.cache.memory.hits")),
      disk_hits_(obs::Registry::Get().GetCounter("sand.cache.disk.hits")),
      misses_(obs::Registry::Get().GetCounter("sand.cache.misses")),
      promotions_(obs::Registry::Get().GetCounter("sand.cache.promotions")),
      demotions_(obs::Registry::Get().GetCounter("sand.cache.demotions")),
      memory_puts_(obs::Registry::Get().GetCounter("sand.cache.memory.puts")),
      disk_puts_(obs::Registry::Get().GetCounter("sand.cache.disk.puts")),
      bytes_read_memory_(obs::Registry::Get().GetCounter("sand.cache.memory.bytes_read")),
      bytes_read_disk_(obs::Registry::Get().GetCounter("sand.cache.disk.bytes_read")),
      bytes_written_memory_(obs::Registry::Get().GetCounter("sand.cache.memory.bytes_written")),
      bytes_written_disk_(obs::Registry::Get().GetCounter("sand.cache.disk.bytes_written")),
      demote_failures_(obs::Registry::Get().GetCounter("sand.cache.demote_failures")),
      peer_hits_(obs::Registry::Get().GetCounter("sand.cluster.peer_hits")),
      peer_misses_(obs::Registry::Get().GetCounter("sand.cluster.peer_misses")),
      peer_bytes_(obs::Registry::Get().GetCounter("sand.cluster.peer_bytes")),
      memory_used_(obs::Registry::Get().GetGauge("sand.cache.memory.used_bytes")),
      disk_used_(obs::Registry::Get().GetGauge("sand.cache.disk.used_bytes")) {}

void TieredCache::UpdateUsageGauges() {
  memory_used_->Set(static_cast<int64_t>(memory_->UsedBytes()));
  disk_used_->Set(static_cast<int64_t>(disk_.UsedBytes()));
}

void TieredCache::SetPeerStore(std::shared_ptr<ObjectStore> peer) {
  std::lock_guard<std::mutex> lock(peer_mutex_);
  peer_ = std::move(peer);
}

std::shared_ptr<ObjectStore> TieredCache::PeerStore() const {
  std::lock_guard<std::mutex> lock(peer_mutex_);
  return peer_;
}

void TieredCache::PublishToPeer(const std::string& key, const Payload& payload) {
  std::shared_ptr<ObjectStore> peer = PeerStore();
  if (peer == nullptr) {
    return;
  }
  SAND_SPAN("peer_publish");
  SharedBytes data = payload.shared != nullptr
                         ? payload.shared
                         : MakeSharedBytes({payload.bytes.begin(), payload.bytes.end()});
  // Best-effort: a dead or full owner node must never fail the local put.
  (void)peer->PutShared(key, std::move(data));
}

void TieredCache::SetCompression(const CompressionPolicy& policy, WorkerPool* pool) {
  std::shared_ptr<ObjectCodec> codec;
  if (policy.enabled) {
    codec = std::make_shared<ObjectCodec>(policy);
  }
  {
    std::lock_guard<std::mutex> lock(codec_mutex_);
    codec_ = std::move(codec);
  }
  compress_pool_.store(policy.enabled ? pool : nullptr, std::memory_order_release);
  compression_on_.store(policy.enabled, std::memory_order_release);
}

void TieredCache::SetCompressionPool(WorkerPool* pool) {
  compress_pool_.store(pool, std::memory_order_release);
}

double TieredCache::CompressionRatio() const {
  auto codec = Codec();
  return codec ? codec->CumulativeRatio() : 1.0;
}

bool TieredCache::compresses_disk_puts() const {
  auto codec = Codec();
  return codec != nullptr && codec->policy().compress_on_disk_put;
}

std::shared_ptr<ObjectCodec> TieredCache::Codec() const {
  if (!compression_on_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(codec_mutex_);
  return codec_;
}

TieredCache::Payload TieredCache::Encode(const std::string& key, const Payload& raw) {
  auto codec = Codec();
  if (!codec) {
    return raw;
  }
  auto encoded = codec->Encode(key, raw.bytes);
  if (!encoded.ok() || !encoded->has_value()) {
    return raw;
  }
  SharedBytes bytes = MakeSharedBytes(std::move(**encoded));
  return Payload{std::span<const uint8_t>(*bytes), bytes};
}

Result<SharedBytes> TieredCache::MaybeDecode(SharedBytes data) {
  if (!compression_on_.load(std::memory_order_acquire) ||
      !ObjectCodec::IsEncoded(std::span<const uint8_t>(*data))) {
    return data;
  }
  auto codec = Codec();
  if (!codec) {
    return data;
  }
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> decoded,
                        codec->Decode(std::span<const uint8_t>(*data)));
  return MakeSharedBytes(std::move(decoded));
}

Status TieredCache::Put(const std::string& key, std::span<const uint8_t> data, Tier tier) {
  return Place(key, Payload{data, nullptr}, tier, PutMode::kReplace).status();
}

Status TieredCache::PutShared(const std::string& key, SharedBytes data, Tier tier) {
  if (data == nullptr) {
    return InvalidArgument("PutShared: null buffer");
  }
  return Place(key, Payload{std::span<const uint8_t>(*data), data}, tier, PutMode::kReplace)
      .status();
}

Result<bool> TieredCache::PutIfAbsent(const std::string& key, std::span<const uint8_t> data,
                                      Tier tier) {
  return Place(key, Payload{data, nullptr}, tier, PutMode::kIfAbsent);
}

Result<bool> TieredCache::Write(ObjectStore& store, const std::string& key,
                                const Payload& payload, PutMode mode, obs::Counter* puts,
                                obs::Counter* bytes_written) {
  Result<bool> stored = true;
  if (mode == PutMode::kIfAbsent) {
    stored = store.PutIfAbsent(key, payload.bytes);
  } else {
    Status status = payload.shared != nullptr ? store.PutShared(key, payload.shared)
                                              : store.Put(key, payload.bytes);
    if (!status.ok()) {
      stored = status;
    }
  }
  if (stored.ok() && *stored) {
    puts->Add(1);
    bytes_written->Add(payload.bytes.size());
    UpdateUsageGauges();
  }
  return stored;
}

Result<bool> TieredCache::Place(const std::string& key, const Payload& raw, Tier tier,
                                PutMode mode) {
  SAND_SPAN("store_put");
  auto place_locally = [&]() -> Result<bool> {
    if (tier == Tier::kMemory) {
      Result<bool> in_memory = Write(*memory_, key, raw, mode, memory_puts_, bytes_written_memory_);
      if (in_memory.ok()) {
        return in_memory;
      }
      // Memory full: fall through to disk rather than failing the pipeline.
    }
    const Payload disk_form =
        tier == Tier::kDisk && compresses_disk_puts() ? Encode(key, raw) : raw;
    Result<bool> on_disk = Write(disk_, key, disk_form, mode, disk_puts_, bytes_written_disk_);
    if (on_disk.ok() || tier != Tier::kDisk ||
        on_disk.status().code() != ErrorCode::kUnavailable) {
      return on_disk;
    }
    // Degraded mode: keep the pipeline alive in memory. The object simply
    // is not durable until the tier recovers. The encoded form is parked to
    // keep the footprint small; reads decode it transparently.
    Result<bool> parked =
        Write(*memory_, key, disk_form, mode, memory_puts_, bytes_written_memory_);
    return parked.ok() ? parked : on_disk;
  };
  Result<bool> stored = place_locally();
  if (stored.ok() && *stored) {
    PublishToPeer(key, raw);
  }
  return stored;
}

Status TieredCache::PutDisk(const std::string& key, std::span<const uint8_t> data) {
  SAND_SPAN("store_put");
  return Write(disk_, key, Payload{data, nullptr}, PutMode::kReplace, disk_puts_,
               bytes_written_disk_)
      .status();
}

Result<SharedBytes> TieredCache::Probe(ObjectStore& store, const std::string& key,
                                       Result<SharedBytes> stored, obs::Counter* hits,
                                       obs::Counter* bytes_read) {
  if (!stored.ok()) {
    return stored;
  }
  // Any level may hold an encoded object: the disk by policy, memory when
  // an offline disk parked one there, a peer whose owner published one.
  Result<SharedBytes> decoded = MaybeDecode(*stored);
  if (!decoded.ok()) {
    // Undecodable container (corrupt, or of a retired codec): drop it so
    // the caller rematerializes.
    (void)Delete(key);
    return decoded;
  }
  hits->Add(1);
  bytes_read->Add((*stored)->size());
  const bool from_below = &store != memory_.get();
  // Best-effort: memory may be full.
  if ((from_below || *decoded != *stored) && memory_->PutShared(key, *decoded).ok()) {
    if (from_below) {
      promotions_->Add(1);
    }
    UpdateUsageGauges();
  }
  return decoded;
}

Result<SharedBytes> TieredCache::ProbeLocal(const std::string& key) {
  // A level that misses, faults, is offline or holds undecodable bytes
  // reads on to the next; the caller rematerializes after the last, so a
  // training loop never sees an infrastructure error here.
  Result<SharedBytes> hit =
      Probe(*memory_, key, memory_->GetShared(key), memory_hits_, bytes_read_memory_);
  if (!hit.ok()) {
    hit = Probe(disk_, key, disk_.GetShared(key), disk_hits_, bytes_read_disk_);
  }
  return hit;
}

Status TieredCache::Missed(const std::string& key, bool peer_asked) {
  if (peer_asked) {
    peer_misses_->Add(1);
  }
  misses_->Add(1);
  return NotFound("no object: " + key);
}

Result<SharedBytes> TieredCache::GetShared(const std::string& key) {
  SAND_SPAN("store_get");
  Result<SharedBytes> hit = ProbeLocal(key);
  if (hit.ok()) {
    return hit;
  }
  // Third level: maybe another node in the ring already materialized it.
  std::shared_ptr<ObjectStore> peer = PeerStore();
  if (peer != nullptr) {
    SAND_SPAN("peer_probe");
    hit = Probe(*peer, key, peer->GetShared(key), peer_hits_, peer_bytes_);
    if (hit.ok()) {
      return hit;
    }
  }
  return Missed(key, peer != nullptr);
}

std::vector<Result<SharedBytes>> TieredCache::GetManyShared(std::span<const std::string> keys) {
  SAND_SPAN("store_get");
  std::vector<Result<SharedBytes>> hits;
  hits.reserve(keys.size());
  std::vector<size_t> missing;
  std::vector<std::string> missing_keys;
  for (size_t i = 0; i < keys.size(); ++i) {
    hits.push_back(ProbeLocal(keys[i]));
    if (!hits.back().ok()) {
      missing.push_back(i);
      missing_keys.push_back(keys[i]);
    }
  }
  std::shared_ptr<ObjectStore> peer = missing.empty() ? nullptr : PeerStore();
  if (peer != nullptr) {
    SAND_SPAN("peer_probe");
    std::vector<Result<SharedBytes>> fetched = peer->GetManyShared(missing_keys);
    for (size_t j = 0; j < missing.size(); ++j) {
      hits[missing[j]] =
          Probe(*peer, missing_keys[j], std::move(fetched[j]), peer_hits_, peer_bytes_);
    }
  }
  for (size_t i : missing) {
    if (!hits[i].ok()) {
      hits[i] = Missed(keys[i], peer != nullptr);
    }
  }
  return hits;
}

bool TieredCache::Contains(const std::string& key) {
  return memory_->Contains(key) || disk_.Contains(key);
}

Status TieredCache::Delete(const std::string& key) {
  const bool in_memory = memory_->Delete(key).ok();
  // An offline disk tier refuses, and its file (if any) stays behind; the
  // recovery Rescan picks it back up, which is safe — objects are
  // content-addressed by plan key.
  const bool on_disk = disk_.Delete(key).ok();
  if (!in_memory && !on_disk) {
    return NotFound("no object: " + key);
  }
  UpdateUsageGauges();
  return Status::Ok();
}

Status TieredCache::Demote(const std::string& key) {
  // Reads the breaker without claiming its probe slot: an offline tier
  // refuses the spill here, and a due probe is left to the next disk op.
  if (disk_.offline()) {
    return Unavailable("disk tier offline: cannot demote " + key);
  }
  if (Codec() != nullptr) {
    if (WorkerPool* pool = compress_pool_.load(std::memory_order_acquire)) {
      // Encode off the demand path; Demote returns as soon as the spill is
      // enqueued. A full queue falls back to the inline path below.
      if (pool->TrySubmit([this, key] {
            const Status status = DemoteCompressed(key);
            if (!status.ok() && status.code() != ErrorCode::kNotFound) {
              demote_failures_->Add(1);
              SAND_LOG(kWarning) << "async demote of " << key
                                 << " failed: " << status.ToString();
            }
          })) {
        return Status::Ok();
      }
    }
  }
  return DemoteCompressed(key);
}

Status TieredCache::DemoteCompressed(const std::string& key) {
  SAND_ASSIGN_OR_RETURN(SharedBytes data, memory_->GetShared(key));
  const Payload spill = Encode(key, Payload{std::span<const uint8_t>(*data), data});
  SAND_RETURN_IF_ERROR(disk_.Put(key, spill.bytes));
  (void)memory_->Delete(key);
  demotions_->Add(1);
  bytes_written_disk_->Add(spill.bytes.size());
  UpdateUsageGauges();
  return Status::Ok();
}

}  // namespace sand
