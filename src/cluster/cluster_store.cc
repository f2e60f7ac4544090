#include "src/cluster/cluster_store.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/net/sand_client.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/vfs/sand_fs.h"

namespace sand {
namespace cluster {

namespace {

// A peer op that never got an answer: the transient failure a fresh dial
// may cure. Any answer, NotFound included, means the node is healthy.
bool TransportFailure(const Status& status) {
  return status.code() == ErrorCode::kUnavailable;
}

std::string EndpointOf(const ClusterNodeOptions& node) {
  if (!node.unix_path.empty()) {
    return node.unix_path;
  }
  return node.host + ":" + std::to_string(node.port);
}

void AppendJsonString(std::ostringstream& out, const std::string& value) {
  out << '"';
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out << '\\';
    }
    out << c;
  }
  out << '"';
}

}  // namespace

// One remote ring member as an ObjectStore: each op is one object verb over
// one of the node's connections, and the traffic it moves is counted for
// /.sand/cluster. The connections are pipelined SandClients that stay open
// and are shared by every call: a call takes the next one round-robin, so
// concurrent calls multiplex over connections_per_peer sockets instead of
// dialing more. A connection that failed in transport (UNAVAILABLE: the
// client poisons itself) is dropped once, by the first call to see it fail,
// and the next call on that slot (the GuardedStore's retry) dials afresh.
// PutIfAbsent is the ObjectStore default, a stat then a put: not atomic
// across the wire, but cluster keys are content-addressed plan keys, so two
// racing writers store identical bytes and the worst case is a duplicate
// transfer, not divergent state.
class ClusterStore::NodeStore : public ObjectStore {
 public:
  NodeStore(const ClusterNodeOptions& node, const ClusterStoreOptions& options)
      : slots_(static_cast<size_t>(std::max(1, options.connections_per_peer))) {
    client_options_.unix_path = node.unix_path;
    client_options_.host = node.host;
    client_options_.port = node.port;
    client_options_.tenant = options.tenant;
  }

  Status Put(const std::string& key, std::span<const uint8_t> data) override {
    Status status = Call([&](net::SandClient& client) { return client.PutObject(key, data); });
    if (status.ok()) {
      bytes_pushed.fetch_add(data.size(), std::memory_order_relaxed);
    }
    return status;
  }
  Result<SharedBytes> GetShared(const std::string& key) override {
    return std::move(GetManyShared(std::span<const std::string>(&key, 1)).front());
  }
  // One kGetObjects request for every key (more only past the frame cap).
  std::vector<Result<SharedBytes>> GetManyShared(std::span<const std::string> keys) override {
    if (keys.empty()) {
      return {};
    }
    Result<std::vector<Result<SharedBytes>>> fetched =
        Call([&](net::SandClient& client) { return client.GetObjects(keys); });
    if (!fetched.ok()) {
      return std::vector<Result<SharedBytes>>(keys.size(), fetched.status());
    }
    for (const Result<SharedBytes>& object : *fetched) {
      if (object.ok()) {
        bytes_fetched.fetch_add((*object)->size(), std::memory_order_relaxed);
      }
    }
    return fetched.TakeValue();
  }
  bool Contains(const std::string& key) override { return SizeOf(key).ok(); }
  Result<uint64_t> SizeOf(const std::string& key) override {
    SAND_ASSIGN_OR_RETURN(
        net::SandClient::ObjectStat stat,
        Call([&](net::SandClient& client) { return client.StatObject(key); }));
    if (!stat.exists) {
      return NotFound("no object: " + key);
    }
    return stat.size;
  }
  Status Delete(const std::string& key) override {
    return Call([&](net::SandClient& client) { return client.DeleteObject(key); });
  }
  // A remote shard is another process's store.
  uint64_t UsedBytes() override { return 0; }
  uint64_t CapacityBytes() override { return 0; }
  std::vector<std::string> ListKeys() override { return {}; }

  // Wire request attempts (a failed dial included), the attempts that
  // failed in transport, and payload bytes moved.
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> bytes_fetched{0};
  std::atomic<uint64_t> bytes_pushed{0};

 private:
  // One of the node's connections: dialed on first use, then shared.
  struct Slot {
    std::mutex mutex;  // guards `client`, and serializes its dial
    std::shared_ptr<net::SandClient> client;
  };

  // Runs `fn` on the next slot's connection, dialing it when the slot is
  // empty, and empties the slot when `fn` failed in transport on it.
  template <typename Fn>
  auto Call(Fn&& fn) -> decltype(fn(std::declval<net::SandClient&>())) {
    using R = decltype(fn(std::declval<net::SandClient&>()));
    SAND_SPAN("cluster_peer_call");
    requests.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[next_slot_.fetch_add(1, std::memory_order_relaxed) % slots_.size()];
    std::shared_ptr<net::SandClient> client;
    {
      std::lock_guard<std::mutex> lock(slot.mutex);
      if (slot.client == nullptr) {
        auto dialed = net::SandClient::Connect(client_options_);
        if (!dialed.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          return R(Unavailable(dialed.status().message()));
        }
        slot.client = std::move(*dialed);
      }
      client = slot.client;
    }
    R answer = fn(*client);
    if (TransportFailure(StatusOf(answer))) {
      errors.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(slot.mutex);
      if (slot.client == client) {
        slot.client.reset();
      }
    }
    return answer;
  }

  net::SandClient::Options client_options_;
  std::vector<Slot> slots_;
  std::atomic<size_t> next_slot_{0};
};

ClusterStore::ClusterStore(std::shared_ptr<ObjectStore> local_shard,
                           ClusterStoreOptions options)
    : local_(std::move(local_shard)), options_(std::move(options)) {
  if (options_.self_index >= static_cast<int>(options_.nodes.size())) {
    SAND_LOG(kWarning) << "cluster: self_index " << options_.self_index
                       << " out of range; running client-only";
    options_.self_index = -1;
  }
  if (options_.self_index >= 0 && local_ == nullptr) {
    SAND_LOG(kWarning) << "cluster: self node has no local shard store; "
                          "running client-only";
    options_.self_index = -1;
  }
  std::vector<std::string> names;
  names.reserve(options_.nodes.size());
  for (ClusterNodeOptions& node : options_.nodes) {
    // The ring label defaults to the endpoint; what matters is that every
    // process in the cluster uses the same labels.
    if (node.name.empty()) {
      node.name = EndpointOf(node);
    }
    names.push_back(node.name);
  }
  ring_.SetMembership(std::move(names));
  members_.reserve(options_.nodes.size());
  for (size_t i = 0; i < options_.nodes.size(); ++i) {
    if (static_cast<int>(i) == options_.self_index) {
      members_.push_back({local_});
      continue;
    }
    auto remote = std::make_shared<NodeStore>(options_.nodes[i], options_);
    auto guard = std::make_shared<GuardedStore>(
        remote, "cluster node '" + options_.nodes[i].name + "'", options_.fault_policy,
        TransportFailure);
    members_.push_back({guard, guard.get(), remote.get()});
  }
}

ClusterStore::~ClusterStore() {
  if (control_view_registered_) {
    SandFs::RegisterControlView("cluster", {});
  }
}

void ClusterStore::RegisterControlView() {
  SandFs::RegisterControlView("cluster", [this] { return HealthJson(); });
  control_view_registered_ = true;
}

Result<size_t> ClusterStore::OwnerOf(const std::string& key) const {
  return ring_.OwnerOf(key);
}

bool ClusterStore::NodeOnline(size_t node) const {
  return node < members_.size() &&
         (members_[node].guard == nullptr || !members_[node].guard->offline());
}

Result<ObjectStore*> ClusterStore::Route(const std::string& key) const {
  SAND_ASSIGN_OR_RETURN(size_t owner, OwnerOf(key));
  return members_[owner].store.get();
}

Status ClusterStore::Put(const std::string& key, std::span<const uint8_t> data) {
  SAND_ASSIGN_OR_RETURN(ObjectStore* owner, Route(key));
  return owner->Put(key, data);
}

Status ClusterStore::PutShared(const std::string& key, SharedBytes data) {
  SAND_ASSIGN_OR_RETURN(ObjectStore* owner, Route(key));
  // The self shard adopts the reference: a locally owned key costs no copy
  // and no wire hop.
  return owner->PutShared(key, std::move(data));
}

Result<bool> ClusterStore::PutIfAbsent(const std::string& key,
                                       std::span<const uint8_t> data) {
  SAND_ASSIGN_OR_RETURN(ObjectStore* owner, Route(key));
  return owner->PutIfAbsent(key, data);
}

Result<SharedBytes> ClusterStore::GetShared(const std::string& key) {
  SAND_ASSIGN_OR_RETURN(ObjectStore* owner, Route(key));
  return owner->GetShared(key);
}

std::vector<Result<SharedBytes>> ClusterStore::GetManyShared(std::span<const std::string> keys) {
  std::vector<Result<SharedBytes>> results(keys.size());
  // The keys each node owns (positions into `keys`): one call per owner.
  std::vector<std::vector<size_t>> owned(members_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    Result<size_t> owner = OwnerOf(keys[i]);
    if (owner.ok()) {
      owned[*owner].push_back(i);
    } else {
      results[i] = owner.status();
    }
  }
  for (size_t node = 0; node < members_.size(); ++node) {
    if (owned[node].empty()) {
      continue;
    }
    std::vector<std::string> subset;
    subset.reserve(owned[node].size());
    for (size_t i : owned[node]) {
      subset.push_back(keys[i]);
    }
    std::vector<Result<SharedBytes>> answers = members_[node].store->GetManyShared(subset);
    for (size_t j = 0; j < owned[node].size(); ++j) {
      results[owned[node][j]] = std::move(answers[j]);
    }
  }
  return results;
}

bool ClusterStore::Contains(const std::string& key) {
  Result<ObjectStore*> owner = Route(key);
  return owner.ok() && (*owner)->Contains(key);
}

Result<uint64_t> ClusterStore::SizeOf(const std::string& key) {
  SAND_ASSIGN_OR_RETURN(ObjectStore* owner, Route(key));
  return owner->SizeOf(key);
}

Status ClusterStore::Delete(const std::string& key) {
  SAND_ASSIGN_OR_RETURN(ObjectStore* owner, Route(key));
  return owner->Delete(key);
}

uint64_t ClusterStore::UsedBytes() {
  return local_ != nullptr ? local_->UsedBytes() : 0;
}

uint64_t ClusterStore::CapacityBytes() {
  return local_ != nullptr ? local_->CapacityBytes() : 0;
}

std::vector<std::string> ClusterStore::ListKeys() {
  return local_ != nullptr ? local_->ListKeys() : std::vector<std::string>{};
}

std::string ClusterStore::HealthJson() const {
  obs::Registry& registry = obs::Registry::Get();
  std::ostringstream out;
  out << "{\n";
  out << "  \"self\": " << options_.self_index << ",\n";
  out << "  \"virtual_nodes\": " << ring_.virtual_nodes() << ",\n";
  out << "  \"peer_hits\": " << registry.GetCounter("sand.cluster.peer_hits")->Value()
      << ",\n";
  out << "  \"peer_misses\": "
      << registry.GetCounter("sand.cluster.peer_misses")->Value() << ",\n";
  out << "  \"peer_bytes\": " << registry.GetCounter("sand.cluster.peer_bytes")->Value()
      << ",\n";
  out << "  \"ring_rebuilds\": "
      << registry.GetCounter("sand.cluster.ring_rebuilds")->Value() << ",\n";
  out << "  \"nodes\": [\n";
  for (size_t i = 0; i < members_.size(); ++i) {
    const Member& member = members_[i];
    // The self node moves no wire traffic and has no breaker.
    auto count = [&](std::atomic<uint64_t> NodeStore::*field) -> uint64_t {
      return member.remote != nullptr ? (member.remote->*field).load(std::memory_order_relaxed)
                                      : 0;
    };
    out << "    {\"name\": ";
    AppendJsonString(out, options_.nodes[i].name);
    out << ", \"endpoint\": ";
    AppendJsonString(out, EndpointOf(options_.nodes[i]));
    out << ", \"self\": " << (member.remote == nullptr ? "true" : "false");
    out << ", \"online\": " << (NodeOnline(i) ? "true" : "false");
    out << ", \"failure_streak\": "
        << (member.guard != nullptr ? member.guard->failure_streak() : 0);
    out << ", \"requests\": " << count(&NodeStore::requests);
    out << ", \"errors\": " << count(&NodeStore::errors);
    out << ", \"bytes_fetched\": " << count(&NodeStore::bytes_fetched);
    out << ", \"bytes_pushed\": " << count(&NodeStore::bytes_pushed);
    out << "}" << (i + 1 < members_.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

}  // namespace cluster
}  // namespace sand
