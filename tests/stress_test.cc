// Concurrency and failure-injection stress tests: the service under
// concurrent multi-task readers, eviction under a tight budget, corrupted
// cache entries, and storage races.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/core/batch_format.h"
#include "src/core/sand_service.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"

namespace sand {
namespace {

SyntheticDatasetOptions StressDataset() {
  SyntheticDatasetOptions options;
  options.num_videos = 6;
  options.frames_per_video = 24;
  options.height = 24;
  options.width = 32;
  options.gop_size = 4;
  options.seed = 321;
  return options;
}

ModelProfile StressProfile() {
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

TEST(StressTest, ConcurrentReadersAcrossTasks) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, StressDataset());
  ASSERT_TRUE(meta.ok());
  // Four tasks sharing the dataset (hyperparameter-search shape).
  std::vector<TaskConfig> tasks;
  for (int t = 0; t < 4; ++t) {
    tasks.push_back(MakeTaskConfig(StressProfile(), meta->path, "t" + std::to_string(t)));
  }
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(128ULL << 20),
                                             std::make_shared<MemoryStore>(512ULL << 20));
  ServiceOptions options;
  options.k_epochs = 2;
  options.total_epochs = 2;
  options.num_threads = 3;
  SandService service(store, *meta, cache, tasks, options);
  ASSERT_TRUE(service.Start().ok());

  std::atomic<int> failures{0};
  std::atomic<uint64_t> bytes_total{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int64_t epoch = 0; epoch < 2; ++epoch) {
        for (int64_t iter = 0; iter < 3; ++iter) {
          std::string path =
              ViewPath::Batch("t" + std::to_string(t), epoch, iter).Format();
          auto fd = service.fs().Open(path);
          if (!fd.ok()) {
            failures.fetch_add(1);
            continue;
          }
          auto bytes = service.fs().ReadAllShared(*fd);
          if (!bytes.ok() || !ParseBatchHeader(**bytes).ok()) {
            failures.fetch_add(1);
          } else {
            bytes_total.fetch_add((*bytes)->size());
          }
          (void)service.fs().Close(*fd);
        }
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(bytes_total.load(), 0u);
  // Identical task configs + coordination: most work shared once.
  ServiceStats stats = service.stats();
  EXPECT_GT(stats.exec.cache_hits, stats.exec.frames_decoded / 4)
      << "cross-task reuse must dominate";
}

TEST(StressTest, EvictionKeepsServingUnderTinyBudget) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, StressDataset());
  ASSERT_TRUE(meta.ok());
  std::vector<TaskConfig> tasks = {MakeTaskConfig(StressProfile(), meta->path, "train")};
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(96ULL << 10),
                                             std::make_shared<MemoryStore>(192ULL << 10));
  ServiceOptions options;
  options.k_epochs = 4;
  options.total_epochs = 4;
  options.num_threads = 2;
  options.storage_budget_bytes = 128ULL << 10;  // forces eviction churn
  SandService service(store, *meta, cache, tasks, options);
  ASSERT_TRUE(service.Start().ok());
  for (int64_t epoch = 0; epoch < 4; ++epoch) {
    for (int64_t iter = 0; iter < 3; ++iter) {
      auto fd = service.fs().Open(ViewPath::Batch("train", epoch, iter).Format());
      ASSERT_TRUE(fd.ok());
      auto bytes = service.fs().ReadAllShared(*fd);
      ASSERT_TRUE(bytes.ok()) << epoch << "/" << iter << ": "
                              << bytes.status().ToString();
      (void)service.fs().Close(*fd);
    }
  }
  service.WaitForBackgroundWork();
  uint64_t used = cache->MemoryUsedBytes() + cache->DiskUsedBytes();
  EXPECT_LE(used, options.storage_budget_bytes)
      << "eviction must keep usage within the budget";
}

TEST(StressTest, CorruptedCacheEntriesAreRecomputed) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, StressDataset());
  ASSERT_TRUE(meta.ok());
  std::vector<TaskConfig> tasks = {MakeTaskConfig(StressProfile(), meta->path, "train")};
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(128ULL << 20),
                                             std::make_shared<MemoryStore>(512ULL << 20));
  ServiceOptions options;
  options.k_epochs = 1;
  options.total_epochs = 1;
  options.num_threads = 2;
  SandService service(store, *meta, cache, tasks, options);
  ASSERT_TRUE(service.Start().ok());
  service.WaitForBackgroundWork();

  // Read once to know the good bytes, then trash every cached object.
  auto fd = service.fs().Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  auto good = service.fs().ReadAllShared(*fd);
  ASSERT_TRUE(good.ok());
  for (const std::string& key : cache->memory().ListKeys()) {
    ASSERT_TRUE(cache->memory().Put(key, std::vector<uint8_t>{1, 2, 3}).ok());
  }
  for (const std::string& key : cache->disk().ListKeys()) {
    ASSERT_TRUE(cache->disk().Put(key, std::vector<uint8_t>{9}).ok());
  }
  // Serving still works: corrupt entries are detected, dropped, recomputed.
  auto fd2 = service.fs().Open("/train/0/1/view");
  ASSERT_TRUE(fd2.ok());
  auto bytes = service.fs().ReadAllShared(*fd2);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_TRUE(ParseBatchHeader(**bytes).ok());
}

TEST(StressTest, StoreConcurrentPutGet) {
  MemoryStore store(64ULL << 20);
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&store, &errors, w] {
      Rng rng(static_cast<uint64_t>(w) + 1);
      for (int i = 0; i < 200; ++i) {
        std::string key = "k" + std::to_string(rng.NextBounded(32));
        std::vector<uint8_t> data(16 + rng.NextBounded(64),
                                  static_cast<uint8_t>(w));
        if (!store.Put(key, data).ok()) {
          errors.fetch_add(1);
        }
        auto got = store.GetShared(key);
        // Value may be any writer's, but must be well-formed when present.
        if (got.ok() && (*got)->empty()) {
          errors.fetch_add(1);
        }
        if (rng.NextBool(0.2)) {
          (void)store.Delete(key);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(errors.load(), 0);
}

TEST(StressTest, FsConcurrentOpenCloseChurn) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, StressDataset());
  ASSERT_TRUE(meta.ok());
  std::vector<TaskConfig> tasks = {MakeTaskConfig(StressProfile(), meta->path, "train")};
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(128ULL << 20),
                                             std::make_shared<MemoryStore>(512ULL << 20));
  ServiceOptions options;
  options.k_epochs = 1;
  options.total_epochs = 1;
  options.num_threads = 2;
  SandService service(store, *meta, cache, tasks, options);
  ASSERT_TRUE(service.Start().ok());
  service.WaitForBackgroundWork();

  std::atomic<int> errors{0};
  std::vector<std::thread> churners;
  for (int w = 0; w < 4; ++w) {
    churners.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto fd = service.fs().Open("/train/0/0/view");
        if (!fd.ok()) {
          errors.fetch_add(1);
          continue;
        }
        std::vector<uint8_t> buffer(64);
        if (!service.fs().PRead(*fd, buffer, 0).ok()) {
          errors.fetch_add(1);
        }
        if (!service.fs().Close(*fd).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& churner : churners) {
    churner.join();
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GE(service.fs().stats().opens, 200u);
}

}  // namespace
}  // namespace sand
