// Tests for the priority-based materialization scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sched/scheduler.h"

namespace sand {
namespace {

// Runs jobs on a single worker so pop order is observable.
class OrderRecorder {
 public:
  void Record(int id) {
    std::lock_guard<std::mutex> lock(mutex_);
    order_.push_back(id);
  }
  std::vector<int> order() {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }

 private:
  std::mutex mutex_;
  std::vector<int> order_;
};

MaterializationJob Job(int id, OrderRecorder& recorder, int64_t deadline,
                       int64_t remaining = 0, bool demand = false) {
  MaterializationJob job;
  job.deadline = deadline;
  job.remaining_work = remaining;
  job.demand_feeding = demand;
  job.run = [id, &recorder] { recorder.Record(id); };
  return job;
}

// A blocker job that holds the single worker until released, letting tests
// enqueue a controlled backlog.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
  }
};

TEST(SchedulerTest, RunsSubmittedJobs) {
  MaterializationScheduler::Options options;
  options.num_threads = 2;
  MaterializationScheduler scheduler(options);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    MaterializationJob job;
    job.run = [&count] { count.fetch_add(1); };
    scheduler.Submit(std::move(job));
  }
  scheduler.WaitIdle();
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(scheduler.stats().jobs_run, 20u);
}

TEST(SchedulerTest, EarliestDeadlineFirst) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.demand_feeding = true;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  scheduler.Submit(Job(3, recorder, /*deadline=*/30));
  scheduler.Submit(Job(1, recorder, /*deadline=*/10));
  scheduler.Submit(Job(2, recorder, /*deadline=*/20));
  gate.Open();
  scheduler.WaitIdle();
  EXPECT_EQ(recorder.order(), (std::vector<int>{1, 2, 3}));
  EXPECT_GE(scheduler.stats().deadline_pops, 3u);
}

TEST(SchedulerTest, DemandFeedingPreemptsBackground) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  scheduler.Submit(Job(10, recorder, /*deadline=*/0));               // background, urgent
  scheduler.Submit(Job(99, recorder, /*deadline=*/1000, 0, true));   // demand
  gate.Open();
  scheduler.WaitIdle();
  EXPECT_EQ(recorder.order().front(), 99) << "demand-feeding must run first";
  EXPECT_EQ(scheduler.stats().demand_jobs_run, 1u);
}

TEST(SchedulerTest, SjfUnderMemoryPressure) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  options.memory_pressure = [] { return 0.95; };  // above the 0.8 watermark
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  scheduler.Submit(Job(1, recorder, /*deadline=*/1, /*remaining=*/100));
  scheduler.Submit(Job(2, recorder, /*deadline=*/99, /*remaining=*/5));
  gate.Open();
  scheduler.WaitIdle();
  // Despite job 1's earlier deadline, SJF picks the nearly-done job 2.
  EXPECT_EQ(recorder.order(), (std::vector<int>{2, 1}));
  EXPECT_GE(scheduler.stats().sjf_pops, 2u);
}

TEST(SchedulerTest, FifoWhenPrioritiesDisabled) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  options.disable_priorities = true;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  scheduler.Submit(Job(1, recorder, /*deadline=*/99));
  scheduler.Submit(Job(2, recorder, /*deadline=*/1, 0, true));  // demand ignored too
  scheduler.Submit(Job(3, recorder, /*deadline=*/50));
  gate.Open();
  scheduler.WaitIdle();
  EXPECT_EQ(recorder.order(), (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, ShutdownDrainsQueue) {
  std::atomic<int> count{0};
  {
    MaterializationScheduler::Options options;
    options.num_threads = 2;
    MaterializationScheduler scheduler(options);
    for (int i = 0; i < 10; ++i) {
      MaterializationJob job;
      job.run = [&count] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        count.fetch_add(1);
      };
      scheduler.Submit(std::move(job));
    }
    scheduler.Shutdown();
  }
  EXPECT_EQ(count.load(), 10) << "pending jobs must complete on shutdown";
}

TEST(SchedulerTest, SubmitAfterShutdownIsRefused) {
  MaterializationScheduler::Options options;
  options.num_threads = 2;
  MaterializationScheduler scheduler(options);
  std::atomic<int> ran{0};
  MaterializationJob before;
  before.run = [&ran] { ran.fetch_add(1); };
  EXPECT_TRUE(scheduler.Submit(std::move(before)));
  scheduler.Shutdown();
  EXPECT_EQ(ran.load(), 1) << "a job queued before Shutdown still runs";

  for (bool demand : {false, true}) {
    MaterializationJob late;
    late.demand_feeding = demand;
    late.run = [&ran] { ran.fetch_add(100); };
    EXPECT_FALSE(scheduler.Submit(std::move(late)));
  }
  std::vector<MaterializationJob> group(1);
  group[0].demand_feeding = true;
  group[0].run = [&ran] { ran.fetch_add(1000); };
  EXPECT_FALSE(scheduler.RunGroup(std::move(group)));
  EXPECT_EQ(scheduler.PendingCount(), 0u) << "a refused job must not be queued";
  scheduler.Shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 1) << "a refused job must never run";
  EXPECT_EQ(scheduler.stats().jobs_run, 1u);
}

// Occupies the scheduler's only worker with a background job until the
// gate opens; returns once the worker is inside it.
void BlockOnlyWorker(MaterializationScheduler& scheduler, Gate& gate, uint32_t tenant = 0) {
  std::atomic<bool> started{false};
  MaterializationJob blocker;
  blocker.ctx.tenant_id = tenant;
  blocker.run = [&started, &gate] {
    started.store(true);
    gate.Wait();
  };
  scheduler.Submit(std::move(blocker));
  while (!started.load()) {
    std::this_thread::yield();
  }
}

// One job per slot of `ran_on`, recording the thread it ran on.
std::vector<MaterializationJob> RecordingGroup(std::vector<std::thread::id>& ran_on,
                                               bool demand) {
  std::vector<MaterializationJob> group;
  for (size_t i = 0; i < ran_on.size(); ++i) {
    MaterializationJob job;
    job.demand_feeding = demand;
    job.run = [&ran_on, i] { ran_on[i] = std::this_thread::get_id(); };
    group.push_back(std::move(job));
  }
  return group;
}

TEST(SchedulerTest, RunGroupRunsDemandJobsOnTheCallerWhileWorkersAreBusy) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  Gate gate;
  BlockOnlyWorker(scheduler, gate);
  // The worker stays inside the background job until after RunGroup
  // returns, so the demand group must not wait for it. Should it wait
  // anyway, the watchdog frees the worker after 5 s: the test then fails
  // on the thread ids instead of hanging.
  std::atomic<bool> returned{false};
  std::thread watchdog([&returned, &gate] {
    for (int i = 0; i < 500 && !returned.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    gate.Open();
  });
  std::vector<std::thread::id> ran_on(3);
  EXPECT_TRUE(scheduler.RunGroup(RecordingGroup(ran_on, /*demand=*/true)));
  returned.store(true);
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.caller_runs, 3u);
  EXPECT_EQ(stats.demand_jobs_run, 3u);
  watchdog.join();
  scheduler.WaitIdle();
  EXPECT_EQ(scheduler.stats().jobs_run, 4u);
}

TEST(SchedulerTest, RunGroupLeavesBackgroundAndFifoGroupsToWorkers) {
  for (bool fifo : {false, true}) {
    MaterializationScheduler::Options options;
    options.num_threads = 1;
    options.disable_priorities = fifo;
    MaterializationScheduler scheduler(options);
    // A pre-materialization group under priorities, a demand group under
    // the FIFO ablation: both wait for the worker, and RunGroup still
    // returns only after every job ran.
    std::vector<std::thread::id> ran_on(2);
    EXPECT_TRUE(scheduler.RunGroup(RecordingGroup(ran_on, /*demand=*/fifo)));
    for (const std::thread::id& id : ran_on) {
      EXPECT_NE(id, std::thread::id()) << "fifo=" << fifo;
      EXPECT_NE(id, std::this_thread::get_id()) << "fifo=" << fifo;
    }
    EXPECT_EQ(scheduler.stats().caller_runs, 0u);
  }
}

TEST(SchedulerTest, RunGroupLeavesACappedTenantsJobsToWorkers) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  scheduler.SetTenantRunningCap(7, 1);
  Gate gate;
  BlockOnlyWorker(scheduler, gate, /*tenant=*/7);
  std::vector<std::thread::id> ran_on(1);
  std::vector<MaterializationJob> group = RecordingGroup(ran_on, /*demand=*/true);
  group[0].ctx.tenant_id = 7;
  std::thread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.Open();
  });
  EXPECT_TRUE(scheduler.RunGroup(std::move(group)));
  opener.join();
  EXPECT_NE(ran_on[0], std::thread::id());
  EXPECT_NE(ran_on[0], std::this_thread::get_id())
      << "tenant 7 was at its cap: its job must wait for the worker";
  EXPECT_EQ(scheduler.stats().caller_runs, 0u);
}

TEST(SchedulerTest, WaitIdleWaitsForRunningJobs) {
  MaterializationScheduler::Options options;
  options.num_threads = 4;
  MaterializationScheduler scheduler(options);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    MaterializationJob job;
    job.run = [&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    };
    scheduler.Submit(std::move(job));
  }
  scheduler.WaitIdle();
  EXPECT_EQ(done.load(), 8);
  EXPECT_EQ(scheduler.PendingCount(), 0u);
}

TEST(SchedulerTest, ConcurrentSubmitters) {
  MaterializationScheduler::Options options;
  options.num_threads = 4;
  MaterializationScheduler scheduler(options);
  std::atomic<int> count{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&scheduler, &count] {
      for (int i = 0; i < 50; ++i) {
        MaterializationJob job;
        job.run = [&count] { count.fetch_add(1); };
        scheduler.Submit(std::move(job));
      }
    });
  }
  for (std::thread& thread : submitters) {
    thread.join();
  }
  scheduler.WaitIdle();
  EXPECT_EQ(count.load(), 200);
}

// ---------------------------------------------------------------------------
// Multi-tenant fair-share (DESIGN.md §13).

MaterializationJob TenantJob(int id, uint32_t tenant, OrderRecorder& recorder,
                             bool demand = false) {
  MaterializationJob job;
  job.demand_feeding = demand;
  job.deadline = id;  // submission order doubles as EDF key
  job.run = [id, &recorder] { recorder.Record(id); };
  job.ctx.tenant_id = tenant;
  return job;
}

TEST(SchedulerTest, DemandPopsRotateAcrossTenants) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  BlockOnlyWorker(scheduler, gate);
  // Tenant 1 floods the demand class before tenant 2 submits anything.
  scheduler.Submit(TenantJob(1, 1, recorder, /*demand=*/true));
  scheduler.Submit(TenantJob(2, 1, recorder, /*demand=*/true));
  scheduler.Submit(TenantJob(3, 1, recorder, /*demand=*/true));
  scheduler.Submit(TenantJob(11, 2, recorder, /*demand=*/true));
  scheduler.Submit(TenantJob(12, 2, recorder, /*demand=*/true));
  scheduler.Submit(TenantJob(13, 2, recorder, /*demand=*/true));
  gate.Open();
  scheduler.WaitIdle();
  // Least-recently-served rotation: the flood does not starve tenant 2.
  EXPECT_EQ(recorder.order(), (std::vector<int>{1, 11, 2, 12, 3, 13}));
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.jobs_run_by_tenant[1], 3u);
  EXPECT_EQ(stats.jobs_run_by_tenant[2], 3u);
}

TEST(SchedulerTest, BackgroundPopsRotateAcrossTenants) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  BlockOnlyWorker(scheduler, gate);
  scheduler.Submit(TenantJob(1, 1, recorder));
  scheduler.Submit(TenantJob(2, 1, recorder));
  scheduler.Submit(TenantJob(11, 2, recorder));
  scheduler.Submit(TenantJob(12, 2, recorder));
  gate.Open();
  scheduler.WaitIdle();
  EXPECT_EQ(recorder.order(), (std::vector<int>{1, 11, 2, 12}));
}

TEST(SchedulerTest, TenantRunningCapNeverExceeded) {
  MaterializationScheduler::Options options;
  options.num_threads = 4;
  MaterializationScheduler scheduler(options);
  scheduler.SetTenantRunningCap(1, 1);
  std::atomic<int> inflight{0};
  std::atomic<int> max_inflight{0};
  for (int i = 0; i < 6; ++i) {
    MaterializationJob job;
    job.ctx.tenant_id = 1;
    job.run = [&inflight, &max_inflight] {
      int current = inflight.fetch_add(1) + 1;
      int seen = max_inflight.load();
      while (current > seen && !max_inflight.compare_exchange_weak(seen, current)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      inflight.fetch_sub(1);
    };
    scheduler.Submit(std::move(job));
  }
  scheduler.WaitIdle();
  EXPECT_EQ(max_inflight.load(), 1) << "cap of 1 must serialize the tenant's jobs";
  EXPECT_EQ(scheduler.stats().jobs_run_by_tenant[1], 6u);
}

TEST(SchedulerTest, CappedTenantDoesNotStarveOthers) {
  MaterializationScheduler::Options options;
  options.num_threads = 2;
  MaterializationScheduler scheduler(options);
  scheduler.SetTenantRunningCap(1, 1);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.ctx.tenant_id = 1;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  // Make sure the blocker was popped (tenant 1 is now at its cap) before
  // queueing the contenders.
  while (scheduler.PendingCount() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.Submit(TenantJob(1, 1, recorder));
  MaterializationJob other = TenantJob(2, 2, recorder);
  other.run = [&recorder, &gate] {
    recorder.Record(2);
    gate.Open();  // only now may tenant 1 proceed
  };
  scheduler.Submit(std::move(other));
  scheduler.WaitIdle();
  EXPECT_EQ(recorder.order(), (std::vector<int>{2, 1}))
      << "the free worker must skip the capped tenant's queued job";
  EXPECT_GE(scheduler.stats().capped_skips, 1u);
}

}  // namespace
}  // namespace sand
