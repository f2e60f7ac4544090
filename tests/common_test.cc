// Unit tests for src/common: Result/Status, strings, rng, clocks, units,
// WorkerPool and RunAll.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/units.h"
#include "src/common/worker_pool.h"

namespace sand {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFound("missing view");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.message(), "missing view");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing view");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<ErrorCode> codes = {
      InvalidArgument("x").code(),  NotFound("x").code(),     AlreadyExists("x").code(),
      OutOfRange("x").code(),       ResourceExhausted("x").code(),
      FailedPrecondition("x").code(), Unavailable("x").code(), DataLoss("x").code(),
      Internal("x").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = InvalidArgument("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(result.ValueOr(7), 7);
}

TEST(ResultTest, TakeValueMoves) {
  Result<std::string> result = std::string("payload");
  std::string taken = result.TakeValue();
  EXPECT_EQ(taken, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  SAND_ASSIGN_OR_RETURN(int half, Half(x));
  SAND_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a//b", '/'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", '/'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", '/'), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("frame12", "frame"));
  EXPECT_FALSE(StartsWith("fr", "frame"));
  EXPECT_TRUE(EndsWith("video.mp4", ".mp4"));
  EXPECT_FALSE(EndsWith("mp4", "video.mp4"));
}

TEST(StringsTest, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("42x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("4.2").has_value());
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.5"), 0.5);
  EXPECT_FALSE(ParseDouble("0.5abc").has_value());
}

TEST(StringsTest, ParseBool) {
  EXPECT_EQ(ParseBool("true"), true);
  EXPECT_EQ(ParseBool("off"), false);
  EXPECT_FALSE(ParseBool("maybe").has_value());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementDistinctSorted) {
  Rng rng(21);
  auto sample = rng.SampleWithoutReplacement(100, 10);
  ASSERT_EQ(sample.size(), 10u);
  for (size_t i = 1; i < sample.size(); ++i) {
    EXPECT_LT(sample[i - 1], sample[i]);
  }
  EXPECT_LT(sample.back(), 100u);
}

TEST(RngTest, SampleFullPopulation) {
  Rng rng(22);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  EXPECT_EQ(sample, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = items;
  rng.Shuffle(items);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(31);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(ClockTest, WallClockMonotonic) {
  WallClock& clock = WallClock::Get();
  Nanos a = clock.Now();
  Nanos b = clock.Now();
  EXPECT_GE(b, a);
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(120);  // backwards: no-op
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.Now(), 500);
}

TEST(ClockTest, StopwatchMeasures) {
  ManualClock clock(0);
  Stopwatch watch(clock);
  clock.Advance(42);
  EXPECT_EQ(watch.Elapsed(), 42);
  watch.Reset();
  EXPECT_EQ(watch.Elapsed(), 0);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kKiB), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(FormatBytes(kGiB), "1.00 GiB");
  EXPECT_EQ(FormatBytes(2 * kTiB), "2.00 TiB");
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(2.5), "2.50 s");
  EXPECT_EQ(FormatDuration(0.0123), "12.30 ms");
  EXPECT_EQ(FormatDuration(0.0000042), "4.20 us");
}

TEST(UnitsTest, TimeConversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(kNanosPerSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMillis(kNanosPerMilli * 5), 5.0);
  EXPECT_EQ(FromMillis(2.0), 2 * kNanosPerMilli);
  EXPECT_EQ(FromSeconds(1.5), kNanosPerSecond + kNanosPerSecond / 2);
}

// --- WorkerPool and RunAll ----------------------------------------------------

// A one-shot gate: Wait blocks until Open. Entered reports that a waiter
// has arrived, so a test knows a worker is parked inside a task.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    arrived_.notify_all();
    opened_.wait(lock, [this] { return open_; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_.wait(lock, [this] { return entered_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    opened_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::condition_variable opened_;
  bool entered_ = false;
  bool open_ = false;
};

// Parks the pool's only worker inside a task until the gate opens. Declare
// the gate before the pool, so the pool joins its worker before the gate
// dies, and an OpenAtExit after it, so a failed assertion cannot leave the
// pool joining a parked worker forever.
void ParkWorker(WorkerPool& pool, Gate& gate) {
  ASSERT_TRUE(pool.TrySubmit([&gate] { gate.Wait(); }));
  gate.AwaitEntered();
}
struct OpenAtExit {
  Gate& gate;
  ~OpenAtExit() { gate.Open(); }
};

TEST(WorkerPoolTest, TrySubmitRefusesAtCapacityAndAfterShutdown) {
  std::atomic<int> ran{0};
  Gate gate;
  WorkerPool pool(WorkerPool::Options{1, 2});
  OpenAtExit open_at_exit{gate};
  ParkWorker(pool, gate);
  EXPECT_TRUE(pool.TrySubmit([&ran] { ++ran; }));
  EXPECT_TRUE(pool.TrySubmit([&ran] { ++ran; }));
  EXPECT_EQ(pool.Pending(), 2u);
  EXPECT_FALSE(pool.TrySubmit([&ran] { ++ran; })) << "the queue holds max_queued tasks";
  gate.Open();
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 2);
  pool.Shutdown();
  EXPECT_FALSE(pool.TrySubmit([&ran] { ++ran; }));
  WorkerPoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(ran.load(), 2);
}

TEST(WorkerPoolTest, OneWorkerRunsTasksInSubmitOrder) {
  std::vector<int> order;  // only the pool's one worker appends
  Gate gate;
  WorkerPool pool(WorkerPool::Options{1, 64});
  OpenAtExit open_at_exit{gate};
  ParkWorker(pool, gate);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&order, i] { order.push_back(i); }));
  }
  gate.Open();
  pool.WaitIdle();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(WorkerPoolTest, WaitIdleReturnsAfterEveryTaskRan) {
  std::atomic<int> finished{0};
  WorkerPool pool(WorkerPool::Options{4, 64});
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&finished] {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      ++finished;
    }));
  }
  pool.WaitIdle();
  EXPECT_EQ(finished.load(), 32);
  EXPECT_EQ(pool.Pending(), 0u);
}

TEST(WorkerPoolTest, ShutdownDrainsQueuedTasks) {
  constexpr size_t kRoom = 1 << 20;  // refusals below mean shutdown, not a full queue
  std::atomic<int> ran{0};
  Gate gate;
  WorkerPool pool(WorkerPool::Options{1, kRoom});
  OpenAtExit open_at_exit{gate};
  ParkWorker(pool, gate);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&ran] { ++ran; }));
  }
  std::thread stopper([&pool] { pool.Shutdown(); });
  // Once TrySubmit refuses, Shutdown has begun with every task still queued.
  size_t extra = 0;
  while (pool.TrySubmit([&ran] { ++ran; })) {
    ++extra;
    std::this_thread::yield();
  }
  EXPECT_LT(pool.Pending(), kRoom);
  EXPECT_EQ(pool.Pending(), 10 + extra);
  gate.Open();
  stopper.join();
  EXPECT_EQ(ran.load(), static_cast<int>(10 + extra));
  EXPECT_EQ(pool.stats().executed, pool.stats().submitted);
}

TEST(RunAllTest, RunsEachIndexOnce) {
  WorkerPool pool(WorkerPool::Options{4, 64});
  std::vector<std::atomic<int>> calls(100);
  RunAll(&pool, calls.size(), [&calls](size_t i) { ++calls[i]; });
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].load(), 1) << "index " << i;
  }
  RunAll(&pool, 0, [](size_t) { ADD_FAILURE() << "no index to run"; });
}

TEST(RunAllTest, RefusedTasksRunOnTheCaller) {
  // One parked worker and one queued filler: the pool refuses every task.
  Gate gate;
  WorkerPool pool(WorkerPool::Options{1, 1});
  OpenAtExit open_at_exit{gate};
  ParkWorker(pool, gate);
  ASSERT_TRUE(pool.TrySubmit([] {}));
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> calls(5, 0);
  RunAll(&pool, calls.size(), [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << i;
    ++calls[i];
  });
  EXPECT_EQ(calls, std::vector<int>(5, 1));
  EXPECT_EQ(pool.stats().rejected, 4u);
  gate.Open();
}

TEST(RunAllTest, NullPoolRunsEveryTaskOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> calls(7, 0);
  RunAll(nullptr, calls.size(), [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << i;
    ++calls[i];
  });
  EXPECT_EQ(calls, std::vector<int>(7, 1));
}

}  // namespace
}  // namespace sand
