// End-to-end tests of SandService: planning, materialization, the POSIX
// surface, caching, eviction, recovery, and custom ops.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/common/trace_context.h"
#include "src/core/batch_format.h"
#include "src/core/sand_service.h"
#include "src/obs/attribution.h"
#include "src/obs/metrics.h"
#include "src/tensor/image_ops.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"

namespace sand {
namespace {

struct TestRig {
  std::shared_ptr<MemoryStore> dataset_store;
  DatasetMeta meta;
  std::shared_ptr<TieredCache> cache;
  std::unique_ptr<SandService> service;
};

SyntheticDatasetOptions SmallDataset() {
  SyntheticDatasetOptions options;
  options.num_videos = 4;
  options.frames_per_video = 24;
  options.height = 24;
  options.width = 32;
  options.gop_size = 4;
  options.seed = 77;
  return options;
}

ModelProfile SmallProfile() {
  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 3;
  profile.frame_stride = 2;
  profile.resize_h = 20;
  profile.resize_w = 28;
  profile.crop_h = 16;
  profile.crop_w = 16;
  return profile;
}

TestRig MakeRig(ServiceOptions options = {}, SyntheticDatasetOptions dataset = SmallDataset(),
                std::vector<TaskConfig> tasks = {}) {
  TestRig rig;
  rig.dataset_store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*rig.dataset_store, dataset);
  EXPECT_TRUE(meta.ok()) << meta.status().ToString();
  rig.meta = meta.TakeValue();
  rig.cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                            std::make_shared<MemoryStore>(256ULL << 20));
  if (tasks.empty()) {
    tasks = {MakeTaskConfig(SmallProfile(), rig.meta.path, "train")};
  }
  options.num_threads = 2;
  rig.service = std::make_unique<SandService>(rig.dataset_store, rig.meta, rig.cache,
                                              std::move(tasks), options);
  EXPECT_TRUE(rig.service->Start().ok());
  return rig;
}

ServiceOptions DefaultOptions() {
  ServiceOptions options;
  options.k_epochs = 2;
  options.total_epochs = 4;
  options.storage_budget_bytes = 64ULL << 20;
  return options;
}

TEST(SandServiceTest, ServesWellFormedBatches) {
  TestRig rig = MakeRig(DefaultOptions());
  SandFs& fs = rig.service->fs();
  auto fd = fs.Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  auto bytes = fs.ReadAllShared(*fd);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_TRUE(fs.Close(*fd).ok());

  auto header = ParseBatchHeader(**bytes);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->n_clips, 2u);
  EXPECT_EQ(header->frames_per_clip, 3u);
  EXPECT_EQ(header->height, 16u);
  EXPECT_EQ(header->width, 16u);
  EXPECT_EQ(header->channels, 3u);
}

TEST(SandServiceTest, BatchesAreDeterministic) {
  TestRig rig1 = MakeRig(DefaultOptions());
  TestRig rig2 = MakeRig(DefaultOptions());
  for (int64_t iter = 0; iter < 2; ++iter) {
    std::string path = StrFormat("/train/0/%lld/view", static_cast<long long>(iter));
    auto fd1 = rig1.service->fs().Open(path);
    auto fd2 = rig2.service->fs().Open(path);
    ASSERT_TRUE(fd1.ok());
    ASSERT_TRUE(fd2.ok());
    auto bytes1 = rig1.service->fs().ReadAllShared(*fd1);
    auto bytes2 = rig2.service->fs().ReadAllShared(*fd2);
    ASSERT_TRUE(bytes1.ok());
    ASSERT_TRUE(bytes2.ok());
    EXPECT_EQ(**bytes1, **bytes2) << "identical services must serve identical batches";
  }
}

TEST(SandServiceTest, AllEpochsAcrossChunksReadable) {
  ServiceOptions options = DefaultOptions();
  options.k_epochs = 2;
  options.total_epochs = 4;  // two chunks
  TestRig rig = MakeRig(options);
  SandFs& fs = rig.service->fs();
  for (int64_t epoch = 0; epoch < 4; ++epoch) {
    for (int64_t iter = 0; iter < 2; ++iter) {
      std::string path = StrFormat("/train/%lld/%lld/view", static_cast<long long>(epoch),
                                   static_cast<long long>(iter));
      auto fd = fs.Open(path);
      ASSERT_TRUE(fd.ok());
      auto bytes = fs.ReadAllShared(*fd);
      ASSERT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
      EXPECT_TRUE(ParseBatchHeader(**bytes).ok());
      ASSERT_TRUE(fs.Close(*fd).ok());
    }
  }
  EXPECT_GE(rig.service->stats().chunks_planned, 2u);
}

TEST(SandServiceTest, FrameViewMatchesGroundTruth) {
  TestRig rig = MakeRig(DefaultOptions());
  // Find a frame the plan decoded (consumer-backed), then compare the view
  // bytes against the procedurally generated source frame.
  rig.service->WaitForBackgroundWork();
  SandFs& fs = rig.service->fs();
  // Frame indices are plan-dependent; probe until one materializes.
  bool found = false;
  for (int64_t index = 0; index < 24 && !found; ++index) {
    std::string path = StrFormat("/train/vid000/frame%lld", static_cast<long long>(index));
    auto fd = fs.Open(path);
    ASSERT_TRUE(fd.ok());
    auto bytes = fs.ReadAllShared(*fd);
    if (bytes.ok()) {
      auto frame = Frame::Deserialize(**bytes);
      ASSERT_TRUE(frame.ok());
      Frame expected = SynthesizeFrame(VideoSeed(77, 0), index, 24, 32, 3);
      EXPECT_EQ(*frame, expected) << "decoded frame must be lossless";
      found = true;
    }
    ASSERT_TRUE(fs.Close(*fd).ok());
  }
  EXPECT_TRUE(found) << "at least one frame of vid000 must be planned";
}

TEST(SandServiceTest, PreMaterializationFillsCache) {
  ServiceOptions options = DefaultOptions();
  options.pre_materialize = true;
  TestRig rig = MakeRig(options);
  rig.service->WaitForBackgroundWork();
  ServiceStats stats = rig.service->stats();
  EXPECT_GT(stats.pre_materialize_jobs, 0u);
  EXPECT_GT(stats.exec.cache_stores, 0u);
  EXPECT_GT(rig.cache->MemoryUsedBytes() + rig.cache->DiskUsedBytes(), 0u);

  // Batch reads should now mostly hit the cache.
  auto fd = rig.service->fs().Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(rig.service->fs().ReadAllShared(*fd).ok());
  EXPECT_GT(rig.service->stats().exec.cache_hits, 0u);
}

TEST(SandServiceTest, TightBudgetStillServesCorrectBatches) {
  ServiceOptions tight = DefaultOptions();
  tight.storage_budget_bytes = 4 * 1024;  // forces heavy pruning
  TestRig rig_tight = MakeRig(tight);
  TestRig rig_loose = MakeRig(DefaultOptions());
  PruningReport report = rig_tight.service->last_pruning_report();
  EXPECT_LE(report.final_bytes, tight.storage_budget_bytes);
  EXPECT_GT(report.subtrees_pruned, 0);
  // Same plan seed -> same batches, regardless of what is cached.
  auto fd1 = rig_tight.service->fs().Open("/train/0/1/view");
  auto fd2 = rig_loose.service->fs().Open("/train/0/1/view");
  ASSERT_TRUE(fd1.ok());
  ASSERT_TRUE(fd2.ok());
  auto bytes1 = rig_tight.service->fs().ReadAllShared(*fd1);
  auto bytes2 = rig_loose.service->fs().ReadAllShared(*fd2);
  ASSERT_TRUE(bytes1.ok());
  ASSERT_TRUE(bytes2.ok());
  EXPECT_EQ(**bytes1, **bytes2);
}

TEST(SandServiceTest, MetadataXattrs) {
  TestRig rig = MakeRig(DefaultOptions());
  SandFs& fs = rig.service->fs();
  auto fd = fs.Open("/train/1/0/view");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*fs.GetXattr(*fd, "epoch"), "1");
  EXPECT_EQ(*fs.GetXattr(*fd, "iteration"), "0");
  EXPECT_EQ(*fs.GetXattr(*fd, "shape"), "2,3,16,16,3");
  auto timestamps = fs.GetXattr(*fd, "timestamps");
  ASSERT_TRUE(timestamps.ok());
  EXPECT_NE(timestamps->find("vid"), std::string::npos);
  EXPECT_FALSE(fs.GetXattr(*fd, "nonsense").ok());
  ASSERT_TRUE(fs.Close(*fd).ok());
}

TEST(SandServiceTest, SessionSignalsAccepted) {
  TestRig rig = MakeRig(DefaultOptions());
  SandFs& fs = rig.service->fs();
  auto session = fs.Open("/train");
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(fs.Close(*session).ok());
  EXPECT_FALSE(fs.Open("/no_such_task").ok());
}

TEST(SandServiceTest, UnknownBatchRejected) {
  TestRig rig = MakeRig(DefaultOptions());
  auto fd = rig.service->fs().Open("/train/0/999/view");
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(rig.service->fs().ReadAllShared(*fd).ok());
  auto fd2 = rig.service->fs().Open("/wrongtask/0/0/view");
  ASSERT_TRUE(fd2.ok());
  EXPECT_FALSE(rig.service->fs().ReadAllShared(*fd2).ok());
}

TEST(SandServiceTest, BatchReadAfterShutdownIsUnavailable) {
  // The scheduler's workers are gone after Shutdown, so a demand batch must
  // be refused at submission; a queued part would block the read forever.
  TestRig rig = MakeRig(DefaultOptions());
  rig.service->Shutdown();
  SandFs& fs = rig.service->fs();
  auto fd = fs.Open("/train/0/1/view");
  ASSERT_TRUE(fd.ok());
  auto start = std::chrono::steady_clock::now();
  auto bytes = fs.ReadAllShared(*fd);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), ErrorCode::kUnavailable) << bytes.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_TRUE(fs.Close(*fd).ok());
}

TEST(SandServiceTest, FailedBatchPartWaitsForItsSiblingParts) {
  // A batch is one scheduler job per source video, each writing into the
  // batch's clip slots. With one video's container gone, its part fails at
  // once while the sibling part is still decoding: the read must return
  // the failure only after the sibling is done (under ASan, returning early
  // is a heap-use-after-free of the clip slots).
  ServiceOptions options = DefaultOptions();
  options.pre_materialize = false;
  TestRig rig = MakeRig(options);
  ASSERT_TRUE(
      rig.dataset_store->Delete(rig.meta.path + "/" + rig.meta.video_names[0] + ".svc").ok());
  int failed = 0;
  for (int iteration = 0; iteration < 2; ++iteration) {
    auto fd = rig.service->fs().Open(StrFormat("/train/0/%d/view", iteration));
    ASSERT_TRUE(fd.ok());
    auto bytes = rig.service->fs().ReadAllShared(*fd);
    if (!bytes.ok()) {
      ++failed;
      EXPECT_EQ(bytes.status().code(), ErrorCode::kNotFound) << bytes.status().ToString();
    }
    EXPECT_TRUE(rig.service->fs().Close(*fd).ok());
  }
  EXPECT_EQ(failed, 1) << "epoch 0 reads each of the 4 videos once, 2 per batch";
}

TEST(SandServiceTest, MultiTaskSharingMergesWork) {
  ServiceOptions options = DefaultOptions();
  SyntheticDatasetOptions dataset = SmallDataset();
  TestRig rig;
  rig.dataset_store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*rig.dataset_store, dataset);
  ASSERT_TRUE(meta.ok());
  rig.meta = meta.TakeValue();
  rig.cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                            std::make_shared<MemoryStore>(256ULL << 20));
  std::vector<TaskConfig> tasks = {MakeTaskConfig(SmallProfile(), rig.meta.path, "a"),
                                   MakeTaskConfig(SmallProfile(), rig.meta.path, "b")};
  options.num_threads = 2;
  // No background jobs: keeps the decode counters attributable to the two
  // reads below (pre-materialization would keep decoding other videos
  // concurrently).
  options.pre_materialize = false;
  rig.service = std::make_unique<SandService>(rig.dataset_store, rig.meta, rig.cache, tasks,
                                              options);
  ASSERT_TRUE(rig.service->Start().ok());

  // Both tasks read batch 0; identical configs under coordination mean the
  // second task's read is nearly free (cache hits).
  auto fd_a = rig.service->fs().Open("/a/0/0/view");
  ASSERT_TRUE(fd_a.ok());
  ASSERT_TRUE(rig.service->fs().ReadAllShared(*fd_a).ok());
  uint64_t decoded_after_a = rig.service->stats().exec.frames_decoded;
  auto fd_b = rig.service->fs().Open("/b/0/0/view");
  ASSERT_TRUE(fd_b.ok());
  ASSERT_TRUE(rig.service->fs().ReadAllShared(*fd_b).ok());
  uint64_t decoded_after_b = rig.service->stats().exec.frames_decoded;
  EXPECT_LE(decoded_after_b - decoded_after_a, decoded_after_a)
      << "task b must reuse task a's decoded objects";
}

TEST(SandServiceTest, RecoveryFindsPersistedObjects) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("sand_core_recovery_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  auto dataset_store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*dataset_store, SmallDataset());
  ASSERT_TRUE(meta.ok());
  std::vector<TaskConfig> tasks = {MakeTaskConfig(SmallProfile(), meta->path, "train")};
  ServiceOptions options = DefaultOptions();
  options.num_threads = 2;

  uint64_t stored;
  {
    auto disk = DiskStore::Open(dir, 1ULL << 30);
    ASSERT_TRUE(disk.ok());
    auto cache = std::make_shared<TieredCache>(
        std::make_shared<MemoryStore>(64ULL << 20),
        std::shared_ptr<ObjectStore>(std::move(*disk)));
    SandService service(dataset_store, *meta, cache, tasks, options);
    ASSERT_TRUE(service.Start().ok());
    service.WaitForBackgroundWork();
    // Spill memory-resident objects so they survive the "crash".
    for (const std::string& key : cache->memory().ListKeys()) {
      ASSERT_TRUE(cache->Demote(key).ok());
    }
    stored = cache->DiskUsedBytes();
    ASSERT_GT(stored, 0u);
    service.Shutdown();
  }

  // "Restart": fresh service over the same disk root.
  auto disk = DiskStore::Open(dir, 1ULL << 30);
  ASSERT_TRUE(disk.ok());
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                             std::shared_ptr<ObjectStore>(std::move(*disk)));
  SandService service(dataset_store, *meta, cache, tasks, options);
  auto recovered = service.RecoverFromDisk();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(*recovered, 0u) << "persisted objects must be found after restart";

  // And the recovered service serves batches without redecoding everything.
  auto fd = service.fs().Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(service.fs().ReadAllShared(*fd).ok());
  std::filesystem::remove_all(dir);
}

Result<Frame> Posterize(const Frame& input) {
  Frame out = input;
  for (uint8_t& v : out.storage()) {
    v = static_cast<uint8_t>(v & 0xC0);
  }
  return out;
}

TEST(SandServiceTest, CustomOpThroughRegistry) {
  // §5.5 extensibility: a user op registered by name and referenced from
  // the task configuration.
  (void)CustomOpRegistry::Get().Register("posterize", &Posterize);
  TaskConfig task = MakeTaskConfig(SmallProfile(), "/dataset/train", "train");
  AugStage custom;
  custom.name = "user";
  custom.type = BranchType::kSingle;
  custom.inputs = {task.augmentation.back().outputs[0]};
  custom.outputs = {"user_out"};
  AugOp op;
  op.kind = OpKind::kCustom;
  op.custom_name = "posterize";
  custom.ops.push_back(op);
  task.augmentation.push_back(custom);

  TestRig rig = MakeRig(DefaultOptions(), SmallDataset(), {task});
  auto fd = rig.service->fs().Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  auto bytes = rig.service->fs().ReadAllShared(*fd);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto clips = ParseBatch(**bytes);
  ASSERT_TRUE(clips.ok());
  for (const Clip& clip : *clips) {
    for (const Frame& frame : clip.frames) {
      for (uint8_t v : frame.data()) {
        EXPECT_EQ(v & 0x3F, 0) << "posterize must have been applied";
      }
    }
  }
}

TEST(SandServiceTest, ListDirWalksTheNamespace) {
  TestRig rig = MakeRig(DefaultOptions());
  SandFs& fs = rig.service->fs();
  auto tasks = fs.ListDir("/");
  ASSERT_TRUE(tasks.ok());
  EXPECT_EQ(*tasks, (std::vector<std::string>{"train"}));

  auto under_task = fs.ListDir("/train");
  ASSERT_TRUE(under_task.ok());
  // 4 epochs + 4 videos.
  EXPECT_EQ(under_task->size(), 8u);
  EXPECT_NE(std::find(under_task->begin(), under_task->end(), "vid000.mp4"),
            under_task->end());

  auto iterations = fs.ListDir("/train/0");
  ASSERT_TRUE(iterations.ok());
  EXPECT_EQ(*iterations, (std::vector<std::string>{"0", "1"}));

  auto view = fs.ListDir("/train/0/1");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(*view, (std::vector<std::string>{"view"}));

  auto frames = fs.ListDir("/train/vid000");
  ASSERT_TRUE(frames.ok());
  EXPECT_FALSE(frames->empty());
  EXPECT_EQ(frames->front().rfind("frame", 0), 0u);

  EXPECT_FALSE(fs.ListDir("/train/99").ok());
  EXPECT_FALSE(fs.ListDir("/nope").ok());
  EXPECT_FALSE(fs.ListDir("relative").ok());
}

// ---------------------------------------------------------------------------
// ServiceStats and /.sand/metrics count from the same statements.

// The "sand.service.*" and "sand.exec.*" counter behind each counted
// ServiceStats field.
std::map<std::string, uint64_t> CountedFields(const ServiceStats& stats) {
  return {
      {"sand.exec.frames_decoded", stats.exec.frames_decoded},
      {"sand.exec.decode_ops", stats.exec.decode_ops},
      {"sand.exec.aug_ops", stats.exec.aug_ops},
      {"sand.exec.crop_ops", stats.exec.crop_ops},
      {"sand.exec.cache_hits", stats.exec.cache_hits},
      {"sand.exec.cache_stores", stats.exec.cache_stores},
      {"sand.exec.parallel_slices", stats.exec.parallel_slices},
      {"sand.service.batches_served", stats.batches_served},
      {"sand.service.demand_materializations", stats.demand_materializations},
      {"sand.service.pre_materialize_jobs", stats.pre_materialize_jobs},
      {"sand.service.evictions", stats.evictions},
      {"sand.service.chunks_planned", stats.chunks_planned},
      {"sand.service.async_units", stats.async_units},
  };
}

// The values of `names` in a "/.sand/metrics" snapshot read through `fs`
// (0 for a counter the process has not registered yet).
std::map<std::string, uint64_t> MetricsView(SandFs& fs,
                                            const std::map<std::string, uint64_t>& names) {
  auto fd = fs.Open("/.sand/metrics");
  EXPECT_TRUE(fd.ok());
  auto bytes = fs.ReadAllShared(*fd);
  EXPECT_TRUE(bytes.ok());
  EXPECT_TRUE(fs.Close(*fd).ok());
  std::string body((*bytes)->begin(), (*bytes)->end());
  std::map<std::string, uint64_t> values;
  for (const auto& [name, unused] : names) {
    std::string needle = "\"" + name + "\": ";
    size_t pos = body.find(needle);
    values[name] = pos == std::string::npos ? 0 : std::stoull(body.substr(pos + needle.size()));
  }
  return values;
}

// The peer store a node sees: counts every read, one-key and batched, and
// the keys each one asked for.
class CountingPeer : public ObjectStore {
 public:
  explicit CountingPeer(std::shared_ptr<ObjectStore> inner) : inner_(std::move(inner)) {}

  Status Put(const std::string& key, std::span<const uint8_t> data) override {
    return inner_->Put(key, data);
  }
  Result<SharedBytes> GetShared(const std::string& key) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++single_gets_;
    asked_.push_back(key);
    return inner_->GetShared(key);
  }
  std::vector<Result<SharedBytes>> GetManyShared(std::span<const std::string> keys) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++batched_gets_;
    asked_.insert(asked_.end(), keys.begin(), keys.end());
    return inner_->GetManyShared(keys);
  }
  bool Contains(const std::string& key) override { return inner_->Contains(key); }
  Result<uint64_t> SizeOf(const std::string& key) override { return inner_->SizeOf(key); }
  Status Delete(const std::string& key) override { return inner_->Delete(key); }
  uint64_t UsedBytes() override { return inner_->UsedBytes(); }
  uint64_t CapacityBytes() override { return inner_->CapacityBytes(); }
  std::vector<std::string> ListKeys() override { return inner_->ListKeys(); }

  int single_gets() {
    std::lock_guard<std::mutex> lock(mutex_);
    return single_gets_;
  }
  int batched_gets() {
    std::lock_guard<std::mutex> lock(mutex_);
    return batched_gets_;
  }
  std::vector<std::string> asked() {
    std::lock_guard<std::mutex> lock(mutex_);
    return asked_;
  }

 private:
  std::shared_ptr<ObjectStore> inner_;
  std::mutex mutex_;
  int single_gets_ = 0;
  int batched_gets_ = 0;
  std::vector<std::string> asked_;
};

// Reads one batch view through `rig`'s fs.
Result<SharedBytes> ReadBatch(TestRig& rig, const std::string& path) {
  SAND_ASSIGN_OR_RETURN(int fd, rig.service->fs().Open(path));
  Result<SharedBytes> bytes = rig.service->fs().ReadAllShared(fd);
  (void)rig.service->fs().Close(fd);
  return bytes;
}

TEST(SandServiceTest, PeerOnlyBatchReadAsksThePeerOncePerPart) {
  // Node A materializes the batch on demand and publishes every object it
  // stores to the ring's store.
  ServiceOptions options = DefaultOptions();
  options.pre_materialize = false;
  auto ring = std::make_shared<MemoryStore>();
  TestRig node_a = MakeRig(options);
  node_a.cache->SetPeerStore(ring);
  auto expected = ReadBatch(node_a, "/train/0/0/view");
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Node B plans the same chunk and finds every leaf at the peer. Its
  // batch has at most videos_per_batch parts.
  TestRig node_b = MakeRig(options);
  auto peer = std::make_shared<CountingPeer>(ring);
  node_b.cache->SetPeerStore(peer);
  auto got = ReadBatch(node_b, "/train/0/0/view");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(**got, **expected);

  EXPECT_EQ(peer->single_gets(), 0) << "no per-leaf gets and no batch-view probe";
  EXPECT_GE(peer->batched_gets(), 1);
  EXPECT_LE(peer->batched_gets(), SmallProfile().videos_per_batch);
  const std::vector<std::string> asked = peer->asked();
  EXPECT_EQ(std::set<std::string>(asked.begin(), asked.end()).size(), asked.size())
      << "each leaf is asked for once";
  const ServiceStats stats = node_b.service->stats();
  EXPECT_EQ(stats.exec.cache_hits, asked.size()) << "every leaf came from the peer";
  EXPECT_EQ(stats.exec.frames_decoded, 0u);
}

TEST(SandServiceTest, LeavesTheBatchedLoadMissedAreNotAskedForAgain) {
  // An empty ring: every leaf misses the batched load and is computed
  // locally without a second read of its key.
  ServiceOptions options = DefaultOptions();
  options.pre_materialize = false;
  TestRig node = MakeRig(options);
  auto peer = std::make_shared<CountingPeer>(std::make_shared<MemoryStore>());
  node.cache->SetPeerStore(peer);
  TestRig reference = MakeRig(options);
  auto got = ReadBatch(node, "/train/0/1/view");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto expected = ReadBatch(reference, "/train/0/1/view");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(**got, **expected);

  EXPECT_EQ(peer->single_gets(), 0);
  EXPECT_LE(peer->batched_gets(), SmallProfile().videos_per_batch);
  const std::vector<std::string> asked = peer->asked();
  EXPECT_FALSE(asked.empty());
  EXPECT_EQ(std::set<std::string>(asked.begin(), asked.end()).size(), asked.size());
  EXPECT_EQ(node.service->stats().exec.cache_hits, 0u);
  EXPECT_GT(node.service->stats().exec.frames_decoded, 0u);
}

TEST(ServiceStatsTest, IntermediateReadsMoveStatsAndMetricsAlike) {
  ServiceOptions options = DefaultOptions();
  options.pre_materialize = false;
  TestRig rig = MakeRig(options);
  SandFs& fs = rig.service->fs();
  const ServiceStats stats_before = rig.service->stats();
  const auto metrics_before = MetricsView(fs, CountedFields(stats_before));

  uint64_t served = 0;
  for (int64_t index = 0; index < 24; ++index) {
    const std::string frame = StrFormat("/train/vid000/frame%lld", static_cast<long long>(index));
    for (const std::string& path : {frame, frame + "/aug1", frame + "/aug2"}) {
      auto fd = fs.Open(path);
      ASSERT_TRUE(fd.ok());
      if (fs.ReadAllShared(*fd).ok()) {
        ++served;
      }
      ASSERT_TRUE(fs.Close(*fd).ok());
    }
  }
  ASSERT_GT(served, 0u);

  const auto stats_after = CountedFields(rig.service->stats());
  const auto metrics_after = MetricsView(fs, stats_after);
  const auto stats_start = CountedFields(stats_before);
  for (const auto& [name, value] : stats_after) {
    EXPECT_EQ(value - stats_start.at(name), metrics_after.at(name) - metrics_before.at(name))
        << name;
  }
  EXPECT_EQ(stats_after.at("sand.service.demand_materializations") -
                stats_start.at("sand.service.demand_materializations"),
            served);
  EXPECT_GT(stats_after.at("sand.exec.aug_ops"), stats_start.at("sand.exec.aug_ops"));
}

TEST(ServiceStatsTest, TwoServicesCountOnlyTheirOwnWork) {
  ServiceOptions options = DefaultOptions();
  options.pre_materialize = false;
  const ServiceStats zero;
  std::map<std::string, uint64_t> registry_before;
  for (const auto& [name, unused] : CountedFields(zero)) {
    registry_before[name] = obs::Registry::Get().GetCounter(name)->Value();
  }
  TestRig one = MakeRig(options);
  TestRig two = MakeRig(options);
  auto read_batch = [](TestRig& rig, int64_t iteration) {
    SandFs& fs = rig.service->fs();
    auto fd = fs.Open(StrFormat("/train/0/%lld/view", static_cast<long long>(iteration)));
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs.ReadAllShared(*fd).ok());
    ASSERT_TRUE(fs.Close(*fd).ok());
  };
  read_batch(one, 0);
  read_batch(two, 0);
  read_batch(two, 1);
  one.service->WaitForBackgroundWork();
  two.service->WaitForBackgroundWork();

  const ServiceStats stats_one = one.service->stats();
  const ServiceStats stats_two = two.service->stats();
  EXPECT_EQ(stats_one.batches_served, 1u);
  EXPECT_EQ(stats_two.batches_served, 2u);
  EXPECT_GT(stats_one.exec.frames_decoded, 0u);
  const auto counts_one = CountedFields(stats_one);
  const auto counts_two = CountedFields(stats_two);
  for (const auto& [name, before] : registry_before) {
    EXPECT_EQ(obs::Registry::Get().GetCounter(name)->Value() - before,
              counts_one.at(name) + counts_two.at(name))
        << name;
  }
}

TEST(BatchFormatTest, RoundTrip) {
  std::vector<Clip> clips(2);
  for (Clip& clip : clips) {
    for (int t = 0; t < 3; ++t) {
      Frame frame(4, 5, 3);
      for (size_t i = 0; i < frame.storage().size(); ++i) {
        frame.storage()[i] = static_cast<uint8_t>(i * 7 + t);
      }
      clip.frames.push_back(std::move(frame));
    }
  }
  auto bytes = SerializeBatch(clips);
  ASSERT_TRUE(bytes.ok());
  auto parsed = ParseBatch(*bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1].frames[2], clips[1].frames[2]);
}

TEST(BatchFormatTest, RejectsCorrupt) {
  std::vector<Clip> clips(1);
  clips[0].frames.emplace_back(2, 2, 1);
  auto bytes = SerializeBatch(clips);
  ASSERT_TRUE(bytes.ok());
  bytes->pop_back();
  EXPECT_FALSE(ParseBatchHeader(*bytes).ok());
  EXPECT_FALSE(SerializeBatch({}).ok());

  // Every clip must match the first in length and frame shape.
  Clip wider;
  wider.frames.emplace_back(2, 3, 1);
  auto shape = SerializeBatch({clips[0], wider});
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), ErrorCode::kInvalidArgument);
  Clip longer;
  longer.frames.emplace_back(2, 2, 1);
  longer.frames.emplace_back(2, 2, 1);
  auto length = SerializeBatch({clips[0], longer});
  ASSERT_FALSE(length.ok());
  EXPECT_EQ(length.status().code(), ErrorCode::kInvalidArgument);
}


// ---------------------------------------------------------------------------
// SubtreeExecutor: GOP-parallel materialization and memo trimming.

TEST(SubtreeExecutorTest, ParallelMaterializeFlaggedMatchesSerial) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, SmallDataset());
  ASSERT_TRUE(meta.ok());
  std::vector<TaskConfig> tasks = {MakeTaskConfig(SmallProfile(), meta->path, "train")};
  PlannerOptions planner;
  planner.k_epochs = 2;
  auto plan = BuildMaterializationPlan(*meta, tasks, 0, planner);
  ASSERT_TRUE(plan.ok());

  ContainerCache containers(store, 8);
  WorkerPool pool(WorkerPool::Options{4, 64});
  for (const VideoObjectGraph& graph : plan->videos) {
    auto serial_cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                                      std::make_shared<MemoryStore>(64ULL << 20));
    auto parallel_cache = std::make_shared<TieredCache>(
        std::make_shared<MemoryStore>(64ULL << 20), std::make_shared<MemoryStore>(64ULL << 20));
    ExecCounters serial_counters;
    ExecCounters parallel_counters;
    SubtreeExecutor serial(graph, &containers, serial_cache.get(), nullptr, serial_counters);
    SubtreeExecutor parallel(graph, &containers, parallel_cache.get(), nullptr, parallel_counters,
                             &pool);
    ASSERT_TRUE(serial.MaterializeFlagged().ok());
    ASSERT_TRUE(parallel.MaterializeFlagged().ok());

    // Same persisted object set, byte for byte.
    for (const ConcreteNode& node : graph.nodes) {
      if (!node.cache || node.op.type == ConcreteOpType::kSource) {
        continue;
      }
      std::string key = NodeCacheKey(graph, node);
      auto want = serial_cache->GetShared(key);
      auto got = parallel_cache->GetShared(key);
      ASSERT_TRUE(want.ok()) << key;
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(**want, **got) << "node " << node.id;
    }
    // Deterministic accounting: the slice path books exactly what a cold
    // serial sweep books.
    ExecutorStats a = serial_counters.stats();
    ExecutorStats b = parallel_counters.stats();
    EXPECT_EQ(a.frames_decoded, b.frames_decoded);
    EXPECT_EQ(a.decode_ops, b.decode_ops);
    EXPECT_EQ(a.cache_stores, b.cache_stores);
  }
  pool.Shutdown();
}

TEST(SubtreeExecutorTest, SlicePathBillsDecodeToTheJob) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, SmallDataset());
  ASSERT_TRUE(meta.ok());
  std::vector<TaskConfig> tasks = {MakeTaskConfig(SmallProfile(), meta->path, "train")};
  PlannerOptions planner;
  planner.k_epochs = 2;
  auto plan = BuildMaterializationPlan(*meta, tasks, 0, planner);
  ASSERT_TRUE(plan.ok());

  ContainerCache containers(store, 8);
  WorkerPool pool(WorkerPool::Options{4, 64});
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                             std::make_shared<MemoryStore>(64ULL << 20));
  const uint32_t job_id = obs::JobRegistry::Get().Intern("slice-decode-job");
  obs::JobMetrics* job = obs::JobMetricsFor(job_id);
  ASSERT_NE(job, nullptr);
  const uint64_t before = job->decode_ns->Value();
  ExecCounters counters;
  {
    ScopedTraceContext scope(BeginRequestContext(job_id, RequestClass::kDemand));
    for (const VideoObjectGraph& graph : plan->videos) {
      SubtreeExecutor executor(graph, &containers, cache.get(), nullptr, counters, &pool);
      ASSERT_TRUE(executor.MaterializeFlagged().ok());
    }
  }
  pool.Shutdown();
  ASSERT_GT(counters.stats().parallel_slices, 0u) << "the GOP-slice path must run";
  EXPECT_GT(job->decode_ns->Value(), before);
}

}  // namespace
}  // namespace sand
