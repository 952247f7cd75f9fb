// Unit tests for the simulator core: scheduler, timers, RNG, statistics.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/sim/stats.h"
#include "src/sim/timer.h"

namespace tfc {
namespace {

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(300, [&] { order.push_back(3); });
  sched.ScheduleAt(100, [&] { order.push_back(1); });
  sched.ScheduleAt(200, [&] { order.push_back(2); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 300);
}

TEST(SchedulerTest, EqualTimesFireInInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  sched.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SchedulerTest, ScheduleAfterUsesCurrentTime) {
  Scheduler sched;
  TimeNs inner_fire = -1;
  sched.ScheduleAt(100, [&] {
    sched.ScheduleAfter(50, [&] { inner_fire = sched.now(); });
  });
  sched.Run();
  EXPECT_EQ(inner_fire, 150);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  auto id = sched.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(sched.Cancel(id));
  sched.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(SchedulerTest, CancelIsIdempotentAndSafeOnInvalidIds) {
  Scheduler sched;
  auto id = sched.ScheduleAt(10, [] {});
  EXPECT_TRUE(sched.Cancel(id));
  EXPECT_FALSE(sched.Cancel(id));
  EXPECT_FALSE(sched.Cancel(Scheduler::EventId{}));
  sched.Run();
}

TEST(SchedulerTest, RunUntilAdvancesClockWithoutOvershooting) {
  Scheduler sched;
  int count = 0;
  sched.ScheduleAt(100, [&] { ++count; });
  sched.ScheduleAt(200, [&] { ++count; });
  sched.ScheduleAt(300, [&] { ++count; });
  sched.RunUntil(200);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sched.now(), 200);
  EXPECT_EQ(sched.pending(), 1u);
  sched.RunUntil(250);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sched.now(), 250);
}

TEST(SchedulerTest, StopHaltsRun) {
  Scheduler sched;
  int count = 0;
  sched.ScheduleAt(1, [&] {
    ++count;
    sched.Stop();
  });
  sched.ScheduleAt(2, [&] { ++count; });
  sched.Run();
  EXPECT_EQ(count, 1);
  sched.Run();
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      sched.ScheduleAfter(1, recurse);
    }
  };
  sched.ScheduleAt(0, recurse);
  sched.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sched.now(), 99);
}

// A keyed event fires where an event scheduled at its birth with its
// sequence number would: a birth later than now sorts after every event of
// its time born earlier, a reserved number among those born with it, and a
// number with the top bit set after all of those.
TEST(SchedulerTest, KeyedEventsFireInBirthOrder) {
  Scheduler sched;
  std::vector<int> order;
  const auto mark = [&order](int id) { return [&order, id] { order.push_back(id); }; };
  const uint64_t early = sched.ReserveSeq();  // reserved at t=0
  const uint64_t top = uint64_t{1} << 63;
  sched.ScheduleKeyed(100, 50, early | top, mark(5));  // born 50, after all born 50
  sched.ScheduleKeyed(100, 50, early, mark(3));        // born 50, reserved before 1-2
  sched.ScheduleAt(100, mark(1));                      // born 0
  sched.ScheduleAt(50, [&] { sched.ScheduleAt(100, mark(4)); });  // born 50
  sched.ScheduleKeyed(100, 0, sched.ReserveSeq(), mark(2));       // born 0, after 1
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// Passed() compares a key with the key of the event being dispatched; once
// RunUntil(t) returns without Stop(), every key due by t has passed.
TEST(SchedulerTest, PassedComparesWithTheRunningEventsKey) {
  Scheduler sched;
  const uint64_t top = uint64_t{1} << 63;
  EXPECT_FALSE(sched.Passed(0, 0, 1));  // nothing has run yet
  uint64_t seq = 0;
  int checked = 0;
  sched.ScheduleAt(20, [&] {
    seq = sched.ReserveSeq() + 1;  // the number the next event takes
    sched.ScheduleAt(100, [&] {
      // This event's key is (100, born 20, seq).
      EXPECT_TRUE(sched.Passed(100, 20, seq));       // equal
      EXPECT_TRUE(sched.Passed(100, 20, seq - 1));   // same birth, earlier number
      EXPECT_FALSE(sched.Passed(100, 20, seq + 1));  // same birth, later number
      EXPECT_TRUE(sched.Passed(100, 10, top));       // born earlier
      EXPECT_FALSE(sched.Passed(100, 30, 0));        // born later
      EXPECT_TRUE(sched.Passed(99, 99, top));        // earlier time
      EXPECT_FALSE(sched.Passed(101, 0, 0));         // later time
      ++checked;
    });
  });
  sched.ScheduleAt(150, [&] { sched.Stop(); });
  sched.RunUntil(200);
  EXPECT_EQ(checked, 1);
  // Stopped at 150: later keys of that instant have not passed.
  EXPECT_TRUE(sched.Passed(150, 0, 0));
  EXPECT_FALSE(sched.Passed(150, 150, top));
  EXPECT_FALSE(sched.Passed(200, 0, 0));
  sched.RunUntil(200);
  EXPECT_TRUE(sched.Passed(200, 0, 1));
  EXPECT_TRUE(sched.Passed(200, 200, top | sched.ReserveSeq()));
  EXPECT_TRUE(sched.Passed(150, 150, top));
  EXPECT_FALSE(sched.Passed(201, 200, 0));
  // A RunUntil that does not move the clock still passes its instant.
  sched.ScheduleAt(200, [] {});
  sched.RunUntil(200);
  EXPECT_TRUE(sched.Passed(200, 200, top));
}

TEST(TimerTest, FiresOnceAfterDelay) {
  Scheduler sched;
  int fires = 0;
  Timer timer(&sched, [&] { ++fires; });
  timer.RestartAfter(100);
  EXPECT_TRUE(timer.pending());
  EXPECT_EQ(timer.expiry(), 100);
  sched.Run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(timer.pending());
}

TEST(TimerTest, RestartCancelsPrevious) {
  Scheduler sched;
  int fires = 0;
  Timer timer(&sched, [&] { ++fires; });
  timer.RestartAfter(100);
  timer.RestartAfter(500);
  sched.Run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sched.now(), 500);
}

TEST(TimerTest, CancelStopsExpiry) {
  Scheduler sched;
  int fires = 0;
  Timer timer(&sched, [&] { ++fires; });
  timer.RestartAfter(100);
  timer.Cancel();
  sched.Run();
  EXPECT_EQ(fires, 0);
}

TEST(PeriodicTimerTest, TicksAtFixedInterval) {
  Scheduler sched;
  std::vector<TimeNs> ticks;
  PeriodicTimer timer(&sched, [&] { ticks.push_back(sched.now()); });
  timer.Start(10);
  sched.RunUntil(55);
  timer.Stop();
  EXPECT_EQ(ticks, (std::vector<TimeNs>{10, 20, 30, 40, 50}));
}

TEST(PeriodicTimerTest, FirstDelayOverride) {
  Scheduler sched;
  std::vector<TimeNs> ticks;
  PeriodicTimer timer(&sched, [&] { ticks.push_back(sched.now()); });
  timer.Start(10, /*first_delay=*/0);
  sched.RunUntil(25);
  timer.Stop();
  EXPECT_EQ(ticks, (std::vector<TimeNs>{0, 10, 20}));
}

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

// A fork draws what its parent would have drawn; the parent moves on to a
// stream of its own, so draws from one no longer shift the other.
TEST(RngTest, ForkContinuesTheStreamAndReKeysTheParent) {
  Rng reference(42);
  Rng parent(42);
  EXPECT_DOUBLE_EQ(parent.Uniform(), reference.Uniform());
  Rng fork = parent.Fork();
  std::vector<double> from_fork;
  std::vector<double> from_parent;
  for (int i = 0; i < 100; ++i) {
    from_fork.push_back(fork.Uniform());
    from_parent.push_back(parent.Uniform());
    EXPECT_DOUBLE_EQ(from_fork.back(), reference.Uniform());
  }
  EXPECT_NE(from_fork, from_parent);
  // The re-keyed stream depends on the parent's state alone.
  Rng again(42);
  again.Uniform();
  again.Fork();
  EXPECT_DOUBLE_EQ(again.Uniform(), from_parent.front());
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(7);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(250.0);
  }
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(0, 4);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 4);
    saw_lo |= v == 0;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(EmpiricalCdfTest, SamplesWithinSupportAndMatchesMean) {
  EmpiricalCdf cdf({{0.0, 0.0}, {10.0, 0.5}, {100.0, 1.0}});
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    const double v = cdf.Sample(rng);
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 100.0);
    stats.Add(v);
  }
  EXPECT_NEAR(stats.mean(), cdf.Mean(), 0.5);
}

TEST(EmpiricalCdfTest, MeanOfPiecewiseLinear) {
  EmpiricalCdf cdf({{0.0, 0.0}, {10.0, 1.0}});
  EXPECT_DOUBLE_EQ(cdf.Mean(), 5.0);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
}

TEST(SampleSetTest, PercentilesInterpolate) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(99), 99.01, 0.01);
}

TEST(SampleSetTest, BatchPercentilesMatchSingleQueries) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) {
    s.Add(i);
  }
  const std::vector<double> ps = {0, 25, 50, 99, 100};
  const std::vector<double> batch = s.Percentiles(ps);
  ASSERT_EQ(batch.size(), ps.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], s.Percentile(ps[i])) << "p=" << ps[i];
  }

  SampleSet empty;
  EXPECT_EQ(empty.Percentiles({50, 99}), (std::vector<double>{0.0, 0.0}));
}

TEST(JainFairnessTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JainFairness({1, 1, 1, 1}), 1.0);
  EXPECT_NEAR(JainFairness({1, 0, 0, 0}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(JainFairness({}), 1.0);
}

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(Microseconds(160), 160'000);
  EXPECT_EQ(Milliseconds(200), 200'000'000);
  EXPECT_EQ(Seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.0)), 2.0);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(59)), 59.0);
}

}  // namespace
}  // namespace tfc
