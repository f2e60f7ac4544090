// ClusterStore: the object namespace sharded across N store nodes
// (DESIGN.md §14).
//
// Each node in the ring is a SandServer with an object-store backend,
// reachable over the wire-v2 pipelined protocol. A ClusterStore is a ring
// router over one ObjectStore per node: it sends every op to the store of
// the key's ring owner (HashRing). The self node's store is the local
// shard, used in-process; every other node's is a GuardedStore over a
// private NodeStore, which speaks the object verbs over that node's shared
// pipelined SandClient connections. A multi-key read costs one request per
// owner node.
//
// Failure semantics: each remote node sits behind its own GuardedStore, the
// decorator that guards the TieredCache disk tier, configured by the same
// DiskFaultPolicy, with one breaker op per request (a multi-key read
// included). A transport failure (UNAVAILABLE) is retried on a fresh
// dial with exponential backoff, a streak of failures marks the node
// offline and ops on its shard short-circuit to UNAVAILABLE until a reprobe
// interval expires — so a dead peer costs one failed probe per interval,
// not a dial timeout per read. Callers above (TieredCache's peer probe)
// treat any failure as a miss, degrading to local recompute; a vanished
// node can slow a job down, never fail it.
//
// Health: per-node breaker state and traffic land in "/.sand/cluster"
// (RegisterControlView publishes the JSON renderer through SandFs's
// control-view hook) next to the sand.cluster.* registry counters.

#ifndef SAND_CLUSTER_CLUSTER_STORE_H_
#define SAND_CLUSTER_CLUSTER_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/hash_ring.h"
#include "src/common/result.h"
#include "src/storage/object_store.h"

namespace sand {
namespace cluster {

// One ring member. `name` is the ring label (placement identity — every
// process must use the same names); the endpoint is how THIS process
// dials it. Unix path wins when set, else host:port TCP.
struct ClusterNodeOptions {
  std::string name;
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = -1;
};

struct ClusterStoreOptions {
  // Ring membership, including this process's own node (if any).
  std::vector<ClusterNodeOptions> nodes;
  // Index into `nodes` of this process's shard; -1 = client-only (every
  // key routes to a remote node).
  int self_index = -1;
  // Tenant tag peer connections HELLO with.
  std::string tenant = "cluster";
  int virtual_nodes = HashRing::kDefaultVirtualNodes;
  // Pipelined connections opened to each peer. They stay open and every
  // call through this store shares them, round-robin; a connection is
  // replaced only after it failed in transport.
  int connections_per_peer = 2;
  // Node-down retry/degrade knobs for each peer's GuardedStore.
  DiskFaultPolicy fault_policy;
};

class ClusterStore : public ObjectStore {
 public:
  // `local_shard` backs the self node's keys and must be the same store
  // the local SandServer serves to peers; required when self_index >= 0.
  ClusterStore(std::shared_ptr<ObjectStore> local_shard, ClusterStoreOptions options);
  ~ClusterStore() override;

  ClusterStore(const ClusterStore&) = delete;
  ClusterStore& operator=(const ClusterStore&) = delete;

  Status Put(const std::string& key, std::span<const uint8_t> data) override;
  Status PutShared(const std::string& key, SharedBytes data) override;
  Result<bool> PutIfAbsent(const std::string& key, std::span<const uint8_t> data) override;
  Result<SharedBytes> GetShared(const std::string& key) override;
  // One GetManyShared call per owner node: a remote owner answers all of
  // its keys with one pipelined request.
  std::vector<Result<SharedBytes>> GetManyShared(std::span<const std::string> keys) override;
  bool Contains(const std::string& key) override;
  Result<uint64_t> SizeOf(const std::string& key) override;
  Status Delete(const std::string& key) override;
  // Capacity/usage/listing describe the local shard only; remote shards
  // are other processes' stores.
  uint64_t UsedBytes() override;
  uint64_t CapacityBytes() override;
  std::vector<std::string> ListKeys() override;

  // Ring owner of `key` (index into the options' nodes);
  // FAILED_PRECONDITION on an empty ring.
  Result<size_t> OwnerOf(const std::string& key) const;
  // Breaker state of a node (self is always online).
  bool NodeOnline(size_t node) const;

  // Per-node health + traffic as JSON (the "/.sand/cluster" body).
  std::string HealthJson() const;
  // Publishes "/.sand/cluster" rendering this instance's HealthJson via
  // SandFs::RegisterControlView. The view is process-global: the last
  // registered instance wins, and the destructor unregisters itself.
  void RegisterControlView();

 private:
  class NodeStore;  // one remote node over the wire (cluster_store.cc)

  // One ring member: the store its keys route to, which is the local shard
  // for the self node and `guard` (over `remote`) for every other node.
  struct Member {
    std::shared_ptr<ObjectStore> store;
    GuardedStore* guard = nullptr;
    NodeStore* remote = nullptr;
  };

  // The store of `key`'s ring owner.
  Result<ObjectStore*> Route(const std::string& key) const;

  std::shared_ptr<ObjectStore> local_;
  ClusterStoreOptions options_;
  HashRing ring_;
  std::vector<Member> members_;  // parallel to options_.nodes
  bool control_view_registered_ = false;
};

}  // namespace cluster
}  // namespace sand

#endif  // SAND_CLUSTER_CLUSTER_STORE_H_
