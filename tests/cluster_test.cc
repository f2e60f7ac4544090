// Cluster tests (DESIGN.md §14): consistent-hash ring determinism and
// minimal-remap on membership change, ClusterStore routing against real
// in-process SandServer store nodes, the TieredCache peer probe level
// (hit without recompute, publish-on-put), and the failover story — a
// killed node trips the breaker, its shard degrades to local recompute,
// and the job completes. Runs in the TSan suite (tools/check_tsan.sh)
// and the ASan loop (tools/check_build.sh).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_store.h"
#include "src/cluster/hash_ring.h"
#include "src/net/sand_server.h"
#include "src/obs/metrics.h"
#include "src/storage/object_store.h"
#include "src/vfs/sand_fs.h"

namespace sand {
namespace {

using cluster::ClusterNodeOptions;
using cluster::ClusterStore;
using cluster::ClusterStoreOptions;
using cluster::HashRing;

// Store nodes serve only the object verbs; the view side is inert.
class NullProvider : public ViewProvider {
 public:
  Result<SharedBytes> Materialize(const ViewPath& path) override {
    return NotFound("no view " + path.Format());
  }
  Result<std::string> GetMetadata(const ViewPath&, const std::string& name) override {
    return NotFound("no xattr " + name);
  }
  Status OnSessionOpen(const std::string&) override { return Status::Ok(); }
  Status OnSessionClose(const std::string&) override { return Status::Ok(); }
};

// One in-process store node: SandServer on a unix socket with a
// MemoryStore shard behind the object verbs.
struct StoreNode {
  explicit StoreNode(const std::string& socket_path)
      : path(socket_path), shard(std::make_shared<MemoryStore>()), fs(&provider) {
    net::SandServer::Options options;
    options.unix_path = path;
    options.object_store = shard.get();
    server = std::make_unique<net::SandServer>(&fs, options);
  }
  ~StoreNode() {
    if (server != nullptr) {
      server->Stop();
    }
    ::unlink(path.c_str());
  }

  std::string path;
  std::shared_ptr<MemoryStore> shard;
  NullProvider provider;
  SandFs fs;
  std::unique_ptr<net::SandServer> server;
};

// Fast-failing policy so node-down tests don't sit in backoff.
DiskFaultPolicy FastFaultPolicy() {
  DiskFaultPolicy policy;
  policy.max_retries = 1;
  policy.initial_backoff = 0;
  policy.offline_threshold = 2;
  policy.reprobe_interval = 50 * kNanosPerMilli;
  return policy;
}

class ClusterTest : public ::testing::Test {
 protected:
  std::string SocketPath(int index) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "sand_cl_" + std::to_string(::getpid()) + "_" +
           info->name() + "_" + std::to_string(index) + ".sock";
  }
};

TEST(HashRingTest, PlacementIsDeterministicAndOrderIndependent) {
  HashRing ring_a({"alpha", "beta", "gamma"});
  HashRing ring_b({"gamma", "alpha", "beta"});  // same members, shuffled
  for (int i = 0; i < 500; ++i) {
    const std::string key = "object-" + std::to_string(i);
    auto owner_a = ring_a.OwnerOf(key);
    auto owner_b = ring_b.OwnerOf(key);
    ASSERT_TRUE(owner_a.ok());
    ASSERT_TRUE(owner_b.ok());
    // Placement is by name, never by list position.
    EXPECT_EQ(ring_a.nodes()[*owner_a], ring_b.nodes()[*owner_b]) << key;
  }
  EXPECT_FALSE(HashRing(std::vector<std::string>{}).OwnerOf("k").ok())
      << "empty ring must refuse";
}

TEST(HashRingTest, RemovingANodeRemapsOnlyItsKeys) {
  HashRing ring({"alpha", "beta", "gamma"});
  std::map<std::string, std::string> before;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "object-" + std::to_string(i);
    before[key] = ring.nodes()[*ring.OwnerOf(key)];
  }
  // All three nodes should own a healthy share under virtual nodes.
  std::map<std::string, int> shares;
  for (const auto& [key, node] : before) {
    shares[node]++;
  }
  for (const auto& [node, count] : shares) {
    EXPECT_GT(count, 150) << node << " owns too little; ring unbalanced";
  }

  ring.SetMembership({"alpha", "gamma"});
  for (const auto& [key, old_owner] : before) {
    const std::string new_owner = ring.nodes()[*ring.OwnerOf(key)];
    if (old_owner == "beta") {
      EXPECT_NE(new_owner, "beta");
    } else {
      // The consistent-hashing contract: surviving nodes keep their keys.
      EXPECT_EQ(new_owner, old_owner) << key;
    }
  }
}

TEST_F(ClusterTest, RoutesEveryKeyToItsRingOwner) {
  StoreNode node_b(SocketPath(1));
  StoreNode node_c(SocketPath(2));
  ASSERT_TRUE(node_b.server->Start().ok());
  ASSERT_TRUE(node_c.server->Start().ok());

  auto local = std::make_shared<MemoryStore>();
  ClusterStoreOptions options;
  options.nodes = {{"node-a", ""}, {"node-b", node_b.path}, {"node-c", node_c.path}};
  options.self_index = 0;
  options.fault_policy = FastFaultPolicy();
  ClusterStore store(local, options);

  std::set<size_t> owners_seen;
  for (int i = 0; i < 60; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    std::vector<uint8_t> data(static_cast<size_t>(i) + 1, static_cast<uint8_t>(i));
    ASSERT_TRUE(store.Put(key, data).ok()) << key;
    const size_t owner = *store.OwnerOf(key);
    owners_seen.insert(owner);
    // The object landed in exactly the owner's shard.
    MemoryStore* shards[] = {local.get(), node_b.shard.get(), node_c.shard.get()};
    for (size_t n = 0; n < 3; ++n) {
      EXPECT_EQ(shards[n]->Contains(key), n == owner) << key << " node " << n;
    }
    // And reads route back regardless of which shard holds it.
    auto got = store.GetShared(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(**got, data);
    EXPECT_TRUE(store.Contains(key));
    EXPECT_EQ(*store.SizeOf(key), data.size());
  }
  EXPECT_EQ(owners_seen.size(), 3u) << "60 keys should spread over all 3 nodes";

  EXPECT_FALSE(store.GetShared("absent").ok());
  EXPECT_FALSE(store.Contains("absent"));

  // PutIfAbsent over the wire: first insert wins, the copy moves no bytes.
  const std::string key = "obj-0";
  auto lost = store.PutIfAbsent(key, std::vector<uint8_t>{9, 9, 9});
  ASSERT_TRUE(lost.ok());
  EXPECT_FALSE(*lost);
  ASSERT_TRUE(store.Delete(key).ok());
  EXPECT_FALSE(store.Contains(key));

  std::string health = store.HealthJson();
  EXPECT_NE(health.find("\"nodes\""), std::string::npos);
  EXPECT_NE(health.find("node-b"), std::string::npos);
}

TEST_F(ClusterTest, TieredCachePeerHitSkipsRecompute) {
  StoreNode peer_node(SocketPath(1));
  ASSERT_TRUE(peer_node.server->Start().ok());

  // A peer (another rank) already computed and published the view.
  const std::vector<uint8_t> view(1024, 7);
  ASSERT_TRUE(peer_node.shard->Put("plan/epoch0/view3", view).ok());

  ClusterStoreOptions options;
  options.nodes = {{"node-b", peer_node.path}};
  options.self_index = -1;  // client-only rank
  options.fault_policy = FastFaultPolicy();
  auto cluster = std::make_shared<ClusterStore>(nullptr, options);

  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto disk = std::make_shared<MemoryStore>(1 << 20);
  TieredCache cache(memory, disk);
  cache.SetPeerStore(cluster);

  obs::Registry& registry = obs::Registry::Get();
  const int64_t hits_before = registry.GetCounter("sand.cluster.peer_hits")->Value();
  const int64_t bytes_before = registry.GetCounter("sand.cluster.peer_bytes")->Value();

  // Local tiers are cold: the read must come from the peer, not NotFound
  // (which would mean recompute).
  auto got = cache.GetShared("plan/epoch0/view3");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(**got, view);
  EXPECT_EQ(registry.GetCounter("sand.cluster.peer_hits")->Value(), hits_before + 1);
  EXPECT_EQ(registry.GetCounter("sand.cluster.peer_bytes")->Value(),
            bytes_before + static_cast<int64_t>(view.size()));
  // The hit was promoted: the rerun is a memory hit, no second wire fetch.
  EXPECT_TRUE(memory->Contains("plan/epoch0/view3"));

  // Local memory puts publish to the owning peer so other ranks can reuse.
  ASSERT_TRUE(cache.Put("plan/epoch0/view9", std::vector<uint8_t>{1, 2, 3},
                        Tier::kMemory)
                  .ok());
  EXPECT_TRUE(peer_node.shard->Contains("plan/epoch0/view9"));
}

TEST_F(ClusterTest, NodeKillDegradesToLocalRecompute) {
  auto peer_node = std::make_unique<StoreNode>(SocketPath(1));
  ASSERT_TRUE(peer_node->server->Start().ok());

  ClusterStoreOptions options;
  options.nodes = {{"node-b", peer_node->path}};
  options.self_index = -1;
  options.fault_policy = FastFaultPolicy();
  auto cluster = std::make_shared<ClusterStore>(nullptr, options);

  auto memory = std::make_shared<MemoryStore>(1 << 20);
  auto disk = std::make_shared<MemoryStore>(1 << 20);
  TieredCache cache(memory, disk);
  cache.SetPeerStore(cluster);

  ASSERT_TRUE(peer_node->shard->Put("view/alive", std::vector<uint8_t>{1}).ok());
  ASSERT_TRUE(cache.GetShared("view/alive").ok()) << "peer reachable before the kill";

  // Kill the node mid-run.
  peer_node.reset();

  // Reads of its shard degrade to misses — the trainer recomputes locally
  // instead of failing. Repeat until the breaker trips.
  for (int i = 0; i < 4; ++i) {
    auto miss = cache.GetShared("view/dead" + std::to_string(i));
    ASSERT_FALSE(miss.ok());
    EXPECT_EQ(miss.status().code(), ErrorCode::kNotFound)
        << "a dead peer must read as a miss, not an infrastructure error: "
        << miss.status().ToString();
    // Recompute-and-continue: the local put succeeds even though the
    // publish to the dead owner goes nowhere.
    ASSERT_TRUE(cache.Put("view/dead" + std::to_string(i),
                          std::vector<uint8_t>{static_cast<uint8_t>(i)},
                          Tier::kMemory)
                    .ok());
    ASSERT_TRUE(cache.GetShared("view/dead" + std::to_string(i)).ok());
  }
  EXPECT_FALSE(cluster->NodeOnline(0)) << "failure streak should trip the breaker";
  std::string health = cluster->HealthJson();
  EXPECT_NE(health.find("\"online\": false"), std::string::npos) << health;
}

TEST_F(ClusterTest, RestartedNodeIsProbedBackOnline) {
  auto peer_node = std::make_unique<StoreNode>(SocketPath(1));
  ASSERT_TRUE(peer_node->server->Start().ok());

  ClusterStoreOptions options;
  options.nodes = {{"node-b", peer_node->path}};
  options.self_index = -1;
  options.fault_policy = FastFaultPolicy();
  auto cluster = std::make_shared<ClusterStore>(nullptr, options);

  TieredCache cache(std::make_shared<MemoryStore>(1 << 20),
                    std::make_shared<MemoryStore>(1 << 20));
  cache.SetPeerStore(cluster);
  ASSERT_TRUE(peer_node->shard->Put("view/before", std::vector<uint8_t>{1}).ok());
  ASSERT_TRUE(cache.GetShared("view/before").ok()) << "peer reachable before the kill";

  // Kill the node and read its shard until the breaker trips.
  peer_node.reset();
  for (int i = 0; i < 4 && cluster->NodeOnline(0); ++i) {
    EXPECT_EQ(cache.GetShared("view/miss" + std::to_string(i)).status().code(),
              ErrorCode::kNotFound);
  }
  ASSERT_FALSE(cluster->NodeOnline(0));

  // A new node comes up on the same socket with a fresh shard. After one
  // reprobe interval the next read is the probe: it redials, succeeds and
  // closes the breaker.
  peer_node = std::make_unique<StoreNode>(SocketPath(1));
  ASSERT_TRUE(peer_node->server->Start().ok());
  const std::vector<uint8_t> view(512, 3);
  ASSERT_TRUE(peer_node->shard->Put("view/after", view).ok());
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(options.fault_policy.reprobe_interval + 5 * kNanosPerMilli));
  auto got = cache.GetShared("view/after");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(**got, view);
  EXPECT_TRUE(cluster->NodeOnline(0));
}

TEST_F(ClusterTest, ConcurrentReadsShareTheNodesConnections) {
  StoreNode node_a(SocketPath(1));
  ASSERT_TRUE(node_a.server->Start().ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(node_a.shard->Put("view/" + std::to_string(i),
                                  std::vector<uint8_t>(64, static_cast<uint8_t>(i)))
                    .ok());
  }

  ClusterStoreOptions options;
  options.nodes = {{"node-a", node_a.path}};
  options.self_index = -1;
  options.connections_per_peer = 2;
  ClusterStore store(nullptr, options);

  // 8 readers x 500 reads, single and batched, all in flight at once: the
  // calls multiplex over the node's connections instead of dialing more.
  std::vector<std::thread> readers;
  std::atomic<int> wrong{0};
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&store, &wrong, t] {
      for (int i = 0; i < 500; ++i) {
        const int first = (t + i) % 16;
        if (i % 2 == 0) {
          auto got = store.GetShared("view/" + std::to_string(first));
          if (!got.ok() || (**got)[0] != first) {
            ++wrong;
          }
          continue;
        }
        const std::vector<std::string> keys = {"view/" + std::to_string(first),
                                               "view/absent",
                                               "view/" + std::to_string((first + 1) % 16)};
        auto got = store.GetManyShared(keys);
        if (got.size() != 3 || !got[0].ok() || (*got[0])->at(0) != first ||
            got[1].status().code() != ErrorCode::kNotFound || !got[2].ok() ||
            (*got[2])->at(0) != (first + 1) % 16) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  const net::ServerStats stats = node_a.server->stats();
  EXPECT_LE(stats.connections_accepted, 2u);
  // One request per read, batched or not.
  EXPECT_EQ(stats.requests_served, 8u * 500u);
}

TEST_F(ClusterTest, BatchedReadAsksEachOwnerOnce) {
  StoreNode node_b(SocketPath(1));
  StoreNode node_c(SocketPath(2));
  ASSERT_TRUE(node_b.server->Start().ok());
  ASSERT_TRUE(node_c.server->Start().ok());
  auto local = std::make_shared<MemoryStore>();
  ClusterStoreOptions options;
  options.nodes = {{"node-a", ""}, {"node-b", node_b.path}, {"node-c", node_c.path}};
  options.self_index = 0;
  ClusterStore store(local, options);

  std::vector<std::string> keys;
  for (int i = 0; i < 40; ++i) {
    keys.push_back("obj-" + std::to_string(i));
    if (i % 4 != 3) {  // every fourth key is absent
      ASSERT_TRUE(store.Put(keys.back(), std::vector<uint8_t>(8, static_cast<uint8_t>(i))).ok());
    }
  }
  const uint64_t served_b = node_b.server->stats().requests_served;
  const uint64_t served_c = node_c.server->stats().requests_served;
  std::vector<Result<SharedBytes>> got = store.GetManyShared(keys);
  ASSERT_EQ(got.size(), keys.size());
  for (int i = 0; i < 40; ++i) {
    if (i % 4 == 3) {
      EXPECT_EQ(got[i].status().code(), ErrorCode::kNotFound) << keys[i];
    } else {
      ASSERT_TRUE(got[i].ok()) << keys[i] << ": " << got[i].status().ToString();
      EXPECT_EQ(**got[i], std::vector<uint8_t>(8, static_cast<uint8_t>(i)));
    }
  }
  EXPECT_EQ(node_b.server->stats().requests_served, served_b + 1);
  EXPECT_EQ(node_c.server->stats().requests_served, served_c + 1);
}

TEST_F(ClusterTest, NodeKillMidBatchTripsTheBreakerAndDegrades) {
  auto peer_node = std::make_unique<StoreNode>(SocketPath(1));
  ASSERT_TRUE(peer_node->server->Start().ok());

  ClusterStoreOptions options;
  options.nodes = {{"node-b", peer_node->path}};
  options.self_index = -1;
  options.fault_policy = FastFaultPolicy();
  auto cluster = std::make_shared<ClusterStore>(nullptr, options);
  cluster->RegisterControlView();
  TieredCache cache(std::make_shared<MemoryStore>(1 << 20),
                    std::make_shared<MemoryStore>(1 << 20));
  cache.SetPeerStore(cluster);

  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(peer_node->shard->Put("view/" + std::to_string(i),
                                      std::vector<uint8_t>{static_cast<uint8_t>(i)})
                    .ok());
  }
  std::vector<Result<SharedBytes>> alive =
      cache.GetManyShared(std::vector<std::string>{"view/0", "view/1"});
  ASSERT_TRUE(alive[0].ok() && alive[1].ok()) << "peer reachable before the kill";

  // A reader keeps batched reads of keys it has not read yet (so not
  // promoted) in flight while the node dies under it. Each batched read is
  // one breaker op, and a key the dead node cannot answer reads as a miss
  // the caller recomputes, never as an error.
  std::atomic<bool> killed{false};
  std::atomic<int> errors{0};
  std::thread reader([&] {
    int next = 2;
    for (int after_kill = 0; after_kill < 6; next += 2) {
      const bool dead = killed.load();
      const std::vector<std::string> keys = {"view/" + std::to_string(next),
                                             "view/" + std::to_string(next + 1)};
      for (const Result<SharedBytes>& result : cache.GetManyShared(keys)) {
        if (!result.ok() && result.status().code() != ErrorCode::kNotFound) {
          ++errors;
        }
      }
      after_kill += dead ? 1 : 0;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  peer_node.reset();
  killed.store(true);
  reader.join();
  EXPECT_EQ(errors.load(), 0);

  for (int i = 0; i < 2; ++i) {
    const std::vector<std::string> keys = {"view/dead" + std::to_string(i),
                                           "view/other" + std::to_string(i)};
    std::vector<Result<SharedBytes>> missed = cache.GetManyShared(keys);
    ASSERT_EQ(missed.size(), 2u);
    for (const Result<SharedBytes>& result : missed) {
      EXPECT_EQ(result.status().code(), ErrorCode::kNotFound) << result.status().ToString();
    }
    // Recompute-and-continue: the local put succeeds though the publish to
    // the dead owner goes nowhere, and the next read is local.
    ASSERT_TRUE(cache.Put(keys[0], std::vector<uint8_t>{static_cast<uint8_t>(i)},
                          Tier::kMemory)
                    .ok());
    EXPECT_TRUE(cache.GetManyShared(keys)[0].ok());
  }
  EXPECT_FALSE(cluster->NodeOnline(0)) << "failure streak should trip the breaker";

  NullProvider provider;
  SandFs fs(&provider);
  auto fd = fs.Open("/.sand/cluster", OpenOptions{});
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  auto body = fs.ReadAllShared(*fd);
  ASSERT_TRUE(body.ok());
  std::string text(reinterpret_cast<const char*>((*body)->data()), (*body)->size());
  EXPECT_NE(text.find("\"online\": false"), std::string::npos) << text;
  ASSERT_TRUE(fs.Close(*fd).ok());
}

TEST_F(ClusterTest, ControlViewPublishesClusterHealth) {
  ClusterStoreOptions options;
  options.nodes = {{"node-a", "/tmp/unused.sock"}};
  options.self_index = -1;
  auto cluster = std::make_shared<ClusterStore>(nullptr, options);
  cluster->RegisterControlView();

  NullProvider provider;
  SandFs fs(&provider);
  auto entries = fs.ListDir("/.sand");
  ASSERT_TRUE(entries.ok());
  EXPECT_NE(std::find(entries->begin(), entries->end(), "cluster"), entries->end());

  auto fd = fs.Open("/.sand/cluster", OpenOptions{});
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  auto body = fs.ReadAllShared(*fd);
  ASSERT_TRUE(body.ok());
  std::string text(reinterpret_cast<const char*>((*body)->data()), (*body)->size());
  EXPECT_NE(text.find("\"nodes\""), std::string::npos);
  EXPECT_NE(text.find("node-a"), std::string::npos);
  ASSERT_TRUE(fs.Close(*fd).ok());

  // Destruction unregisters the view.
  cluster.reset();
  EXPECT_FALSE(fs.Open("/.sand/cluster", OpenOptions{}).ok());
}

}  // namespace
}  // namespace sand
