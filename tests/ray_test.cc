// Tests for the mini-Ray layer: ASHA tuning, multi-task, and DDP runners.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/baselines/sources.h"
#include "src/ray/mini_ray.h"

namespace sand {
namespace {

// Instant source for scheduler-logic tests.
std::unique_ptr<BatchSource> InstantSource(int64_t iterations) {
  return std::make_unique<IdealSource>(std::vector<uint8_t>(64, 0), iterations);
}

TEST(TrialScoreTest, MonotoneAndBounded) {
  for (uint64_t seed : {1ULL, 9ULL, 77ULL}) {
    double previous = 0;
    for (int64_t epochs = 1; epochs <= 8; ++epochs) {
      double score = TrialScore(seed, epochs);
      EXPECT_GT(score, previous) << "learning curves improve with epochs";
      EXPECT_LT(score, 1.0);
      previous = score;
    }
  }
}

TEST(TrialScoreTest, SeedsDiffer) {
  EXPECT_NE(TrialScore(1, 4), TrialScore(2, 4));
}

TEST(TuneRunnerTest, RunsAllTrials) {
  TuneOptions options;
  options.num_trials = 6;
  options.num_gpus = 2;
  options.max_epochs = 4;
  options.grace_epochs = 1;
  TuneRunner runner(options);
  GpuSpec spec;
  spec.time_scale = 0.05;  // fast test
  GpuModel gpu0(spec);
  GpuModel gpu1(spec);
  ModelProfile profile;
  profile.gpu_step = FromMillis(1.0);
  auto result = runner.Run(
      [&](int, int) -> Result<std::unique_ptr<BatchSource>> { return InstantSource(3); },
      profile, {&gpu0, &gpu1}, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->trials.size(), 6u);
  for (const TrialOutcome& trial : result->trials) {
    EXPECT_GE(trial.epochs_run, 1);
    EXPECT_LE(trial.epochs_run, 4);
    EXPECT_GT(trial.metrics.batches, 0u);
  }
  EXPECT_GE(result->best_trial, 0);
  EXPECT_GT(result->wall_ns, 0);
  EXPECT_GT(result->avg_gpu_utilization, 0.0);
}

TEST(TuneRunnerTest, AshaStopsLaggards) {
  TuneOptions options;
  options.num_trials = 12;
  options.num_gpus = 4;
  options.max_epochs = 8;
  options.grace_epochs = 1;
  options.eta = 2.0;
  TuneRunner runner(options);
  GpuSpec spec;
  spec.time_scale = 0.01;
  std::vector<std::unique_ptr<GpuModel>> gpus;
  std::vector<GpuModel*> gpu_ptrs;
  for (int g = 0; g < 4; ++g) {
    gpus.push_back(std::make_unique<GpuModel>(spec));
    gpu_ptrs.push_back(gpus.back().get());
  }
  ModelProfile profile;
  profile.gpu_step = FromMillis(0.5);
  auto result = runner.Run(
      [&](int, int) -> Result<std::unique_ptr<BatchSource>> { return InstantSource(2); },
      profile, gpu_ptrs, nullptr);
  ASSERT_TRUE(result.ok());
  int stopped = 0;
  for (const TrialOutcome& trial : result->trials) {
    stopped += trial.early_stopped ? 1 : 0;
  }
  EXPECT_GT(stopped, 0) << "ASHA must early-stop some trials";
  EXPECT_LT(result->TotalEpochsRun(), 12 * 8) << "early stopping saves epochs";
}

TEST(TuneRunnerTest, PropagatesSourceErrors) {
  TuneOptions options;
  options.num_trials = 2;
  options.num_gpus = 1;
  TuneRunner runner(options);
  GpuModel gpu;
  ModelProfile profile;
  auto result = runner.Run(
      [&](int, int) -> Result<std::unique_ptr<BatchSource>> {
        return Unavailable("boom");
      },
      profile, {&gpu}, nullptr);
  EXPECT_FALSE(result.ok());
}

// A latch the jobs' sources meet at: each source's first NextBatch waits
// inside the call until every source has entered its own, so only a runner
// that has the jobs in flight at once releases it. A serial runner would
// hang there; after 5 s the wait fails the batch instead.
struct Rendezvous {
  std::mutex mutex;
  std::condition_variable cv;
  int expected = 0;
  int arrived = 0;
};

class RendezvousSource : public BatchSource {
 public:
  RendezvousSource(Rendezvous* rendezvous, int64_t iterations)
      : rendezvous_(rendezvous), iterations_(iterations) {}

  Result<SharedBytes> NextBatch(int64_t, int64_t) override {
    if (!met_) {
      met_ = true;
      std::unique_lock<std::mutex> lock(rendezvous_->mutex);
      ++rendezvous_->arrived;
      rendezvous_->cv.notify_all();
      if (!rendezvous_->cv.wait_for(lock, std::chrono::seconds(5), [this] {
            return rendezvous_->arrived == rendezvous_->expected;
          })) {
        return Unavailable("the other job never entered NextBatch while this one waited");
      }
    }
    return MakeSharedBytes(std::vector<uint8_t>(64, 0));
  }
  int64_t IterationsPerEpoch() const override { return iterations_; }

 private:
  Rendezvous* rendezvous_;
  int64_t iterations_;
  bool met_ = false;
};

TEST(MultiTaskRunnerTest, RunsConcurrently) {
  GpuSpec spec;
  spec.time_scale = 0.1;
  GpuModel gpu0(spec);
  GpuModel gpu1(spec);
  ModelProfile profile;
  profile.gpu_step = FromMillis(1.0);
  Rendezvous rendezvous;
  rendezvous.expected = 2;
  std::vector<MultiTaskJob> jobs;
  jobs.push_back(
      MultiTaskJob{profile, std::make_unique<RendezvousSource>(&rendezvous, 4), &gpu0});
  jobs.push_back(
      MultiTaskJob{profile, std::make_unique<RendezvousSource>(&rendezvous, 4), &gpu1});
  auto result = RunMultiTask(std::move(jobs), /*epochs=*/2, /*cpu_cores=*/2, PowerSpec{},
                             nullptr);
  // Concurrent: both jobs were inside NextBatch at once, or a batch failed.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->per_task.size(), 2u);
  EXPECT_EQ(result->per_task[0].batches, 8u);
  EXPECT_EQ(result->per_task[1].batches, 8u);
}

TEST(DdpRunnerTest, ShardsIterationsAcrossRanks) {
  GpuSpec spec;
  spec.time_scale = 0.1;
  GpuModel gpu0(spec);
  GpuModel gpu1(spec);
  ModelProfile profile;
  profile.gpu_step = FromMillis(0.5);

  // A source that records which iterations it served.
  class RecordingSource : public BatchSource {
   public:
    explicit RecordingSource(std::vector<int64_t>* log) : log_(log) {}
    Result<SharedBytes> NextBatch(int64_t, int64_t iteration) override {
      log_->push_back(iteration);
      return MakeSharedBytes(std::vector<uint8_t>(16, 0));
    }
    int64_t IterationsPerEpoch() const override { return 4; }

   private:
    std::vector<int64_t>* log_;
  };
  std::vector<int64_t> log0;
  std::vector<int64_t> log1;
  std::vector<MultiTaskJob> ranks;
  ranks.push_back(MultiTaskJob{profile, std::make_unique<RecordingSource>(&log0), &gpu0});
  ranks.push_back(MultiTaskJob{profile, std::make_unique<RecordingSource>(&log1), &gpu1});
  DdpOptions options;
  options.world_size = 2;
  options.epochs = 1;
  auto result = RunDdp(std::move(ranks), options, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(log0, (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(log1, (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(result->per_rank[0].batches, 2u);
  EXPECT_GT(result->avg_gpu_utilization, 0.0);
}

TEST(DdpRunnerTest, RejectsWorldSizeMismatch) {
  DdpOptions options;
  options.world_size = 2;
  std::vector<MultiTaskJob> ranks;
  GpuModel gpu;
  ranks.push_back(MultiTaskJob{ModelProfile{}, InstantSource(2), &gpu});
  EXPECT_FALSE(RunDdp(std::move(ranks), options, nullptr).ok());
}

}  // namespace
}  // namespace sand
