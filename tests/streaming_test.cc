// Tests for the streaming input path (§5.1): LiveIngestStore visibility and
// per-chunk dataset refresh in the service.

#include <gtest/gtest.h>

#include "src/core/batch_format.h"
#include "src/core/sand_service.h"
#include "src/storage/live_ingest.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"

namespace sand {
namespace {

TEST(LiveIngestStoreTest, VisibilityFollowsClock) {
  auto backing = std::make_shared<MemoryStore>();
  LiveIngestStore store(backing);
  std::vector<uint8_t> data = {1, 2, 3};
  ASSERT_TRUE(store.PutAt("later", data, FromSeconds(10)).ok());
  ASSERT_TRUE(store.Put("now", data).ok());

  EXPECT_TRUE(store.Contains("now"));
  EXPECT_FALSE(store.Contains("later"));
  EXPECT_FALSE(store.GetShared("later").ok());
  EXPECT_EQ(store.PendingKeys(), (std::vector<std::string>{"later"}));
  EXPECT_EQ(store.ListKeys(), (std::vector<std::string>{"now"}));

  store.AdvanceTo(FromSeconds(10));
  EXPECT_TRUE(store.Contains("later"));
  EXPECT_EQ(**store.GetShared("later"), data);
  EXPECT_TRUE(store.PendingKeys().empty());
}

TEST(LiveIngestStoreTest, ClockIsMonotone) {
  LiveIngestStore store(std::make_shared<MemoryStore>());
  store.AdvanceTo(100);
  store.AdvanceTo(50);  // backwards: ignored
  EXPECT_EQ(store.Now(), 100);
}

TEST(LiveIngestStoreTest, DeleteRemovesPending) {
  auto backing = std::make_shared<MemoryStore>();
  LiveIngestStore store(backing);
  std::vector<uint8_t> data = {1};
  ASSERT_TRUE(store.PutAt("k", data, 100).ok());
  ASSERT_TRUE(store.Delete("k").ok());
  store.AdvanceTo(100);
  EXPECT_FALSE(store.Contains("k"));
}

TEST(StreamingServiceTest, NewVideosJoinTheNextChunk) {
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 4;
  dataset.frames_per_video = 24;
  dataset.height = 24;
  dataset.width = 32;
  dataset.gop_size = 4;
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, dataset);
  ASSERT_TRUE(meta.ok());
  auto live_meta = std::make_shared<DatasetMeta>(*meta);

  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 3;
  profile.frame_stride = 2;
  profile.resize_h = 20;
  profile.resize_w = 28;
  profile.crop_h = 16;
  profile.crop_w = 16;
  TaskConfig task = MakeTaskConfig(profile, meta->path, "online");
  task.input_source = InputSource::kStreaming;

  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                             std::make_shared<MemoryStore>(256ULL << 20));
  ServiceOptions options;
  options.k_epochs = 1;  // refresh every epoch
  options.total_epochs = 3;
  options.num_threads = 2;
  options.pre_materialize = false;  // deterministic counters
  options.dataset_refresh = [live_meta]() -> Result<DatasetMeta> { return *live_meta; };
  SandService service(store, *meta, cache, {task}, options);
  ASSERT_TRUE(service.Start().ok());

  // Epoch 0: 4 videos -> 2 iterations.
  auto fd = service.fs().Open("/online/0/1/view");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(service.fs().ReadAllShared(*fd).ok());

  // Four more videos arrive before epoch 1 is planned.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyntheticVideo(*store, dataset, *live_meta).ok());
  }
  // Epoch 1's chunk sees 8 videos -> 4 iterations; iteration 3 now exists.
  auto fd2 = service.fs().Open("/online/1/3/view");
  ASSERT_TRUE(fd2.ok());
  auto bytes = service.fs().ReadAllShared(*fd2);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_TRUE(ParseBatchHeader(**bytes).ok());

  // The namespace reflects the grown dataset.
  auto listing = service.fs().ListDir("/online");
  ASSERT_TRUE(listing.ok());
  int videos_listed = 0;
  for (const std::string& name : *listing) {
    if (name.find(".mp4") != std::string::npos) {
      ++videos_listed;
    }
  }
  EXPECT_EQ(videos_listed, 8);
}

TEST(StreamingServiceTest, IngestGatedVideosBlockUntilPublished) {
  // A video planned before its container is visible fails to materialize;
  // after the ingest clock advances it succeeds.
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 2;
  dataset.frames_per_video = 16;
  dataset.height = 16;
  dataset.width = 24;
  dataset.gop_size = 4;
  auto backing = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*backing, dataset);
  ASSERT_TRUE(meta.ok());
  auto live = std::make_shared<LiveIngestStore>(backing);
  // Republish vid001 in the future on the ingest clock.
  auto container = backing->GetShared(meta->path + "/vid001.svc");
  ASSERT_TRUE(container.ok());
  ASSERT_TRUE(live->PutAt(meta->path + "/vid001.svc", **container, FromSeconds(5)).ok());
  ASSERT_TRUE(live->Put(meta->path + "/vid000.svc", **backing->GetShared(meta->path + "/vid000.svc"))
                  .ok());

  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 2;
  profile.frame_stride = 2;
  profile.resize_h = 12;
  profile.resize_w = 16;
  profile.crop_h = 8;
  profile.crop_w = 8;
  TaskConfig task = MakeTaskConfig(profile, meta->path, "gated");
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                             std::make_shared<MemoryStore>(64ULL << 20));
  ServiceOptions options;
  options.k_epochs = 1;
  options.total_epochs = 1;
  options.num_threads = 2;
  options.pre_materialize = false;
  SandService service(live, *meta, cache, {task}, options);
  ASSERT_TRUE(service.Start().ok());

  auto fd = service.fs().Open("/gated/0/0/view");
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(service.fs().ReadAllShared(*fd).ok()) << "vid001 not ingested yet";

  live->AdvanceTo(FromSeconds(5));
  auto fd2 = service.fs().Open("/gated/0/0/view");
  ASSERT_TRUE(fd2.ok());
  EXPECT_TRUE(service.fs().ReadAllShared(*fd2).ok()) << "after ingest the batch materializes";
}

}  // namespace
}  // namespace sand
