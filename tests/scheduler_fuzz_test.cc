// Differential scheduler fuzz: long random schedule/cancel/run-until op
// sequences executed against a trivially-correct reference model (a std::map
// keyed by (time, born, seq)), asserting the exact firing order matches
// event for event. This proves the two-tier event queue (calendar ring + far
// heap, src/sim/event_queue.h) equivalent to the obvious implementation,
// including the FIFO tie-break that determinism depends on and the keyed
// pushes a port makes (Scheduler::ScheduleKeyed): births later than now,
// with and without the delivery's top bit, and sequence numbers reserved
// several steps before the push. The op mix reaches both tiers: delays up
// to several ring spans, idle jumps that wrap the ring's bucket indices many
// times, cancels in either tier, a far event and a later ring event at the
// same time, same-bucket bursts past the ring's walk cap, and keyed pushes
// that sort before queued events of their own time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/audit.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"

namespace tfc {
namespace {

// Structural validation of both queue tiers (bucket links and order, bitmap
// agreement, far-heap order and back-index, free-list integrity) — the fuzz
// loop runs it after every run-until step, so any structural corruption is
// caught at the op that introduced it rather than as a later firing-order
// divergence.
void ExpectHeapStructurallyValid(const Scheduler& sched, int step, uint64_t seed) {
  AuditReport report;
  Auditor auditor(&report);
  auditor.set_component("fuzz.scheduler");
  sched.AuditInvariants(auditor);
  ASSERT_TRUE(report.ok()) << "heap structure broken at step " << step
                           << " (seed " << seed << ")\n"
                           << report.ToString();
  EXPECT_GT(report.checks, 0u);
}

TEST(SchedulerFuzzTest, FiringOrderMatchesReferenceModel) {
  constexpr int kOpsPerSeed = 12000;  // acceptance floor is 10k random ops
  constexpr TimeNs kSpan = Scheduler::Queue::kRingSpan;
  constexpr TimeNs kWidth = Scheduler::Queue::kBucketWidth;
  constexpr int kBurst = static_cast<int>(Scheduler::Queue::kWalkCap) + 4;
  static_assert(kWidth.count() > kBurst, "a burst must fit in one bucket");
  for (uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
    Rng rng(seed);
    Scheduler sched;

    // Reference: (time, born, seq) -> op. The scheduler fires callbacks
    // that append their op-id to `executed`; draining the model appends the
    // same ids to `expected` in model order. `seq` mirrors the scheduler's
    // counter: ScheduleAt and ReserveSeq each take the next number.
    using Key = std::tuple<int64_t, int64_t, uint64_t>;
    std::map<Key, int> model;
    std::map<int, std::pair<Key, Scheduler::EventId>> live;  // op -> handle
    std::vector<int> executed;
    std::vector<int> expected;
    int next_op = 0;
    uint64_t seq = 0;

    TimeNs horizon = 0;
    int keyed_before_peers = 0;  // keyed pushes that sorted before a queued twin
    auto add = [&](TimeNs at, TimeNs born, uint64_t key_seq, Scheduler::EventId id, int op,
                   bool keyed) {
      const Key key{at.count(), born.count(), key_seq};
      const auto [it, inserted] = model.emplace(key, op);
      ASSERT_TRUE(inserted) << "duplicate key";
      const auto next = std::next(it);
      if (keyed && next != model.end() && std::get<0>(next->first) == at.count()) {
        ++keyed_before_peers;
      }
      live.emplace(op, std::make_pair(key, id));
    };
    auto schedule = [&](TimeNs at) {
      const int op = next_op++;
      auto id = sched.ScheduleAt(at, [op, &executed] { executed.push_back(op); });
      add(at, horizon, ++seq, id, op, /*keyed=*/false);
    };
    auto schedule_keyed = [&](TimeNs at, TimeNs born, uint64_t key_seq) {
      const int op = next_op++;
      auto id =
          sched.ScheduleKeyed(at, born, key_seq, [op, &executed] { executed.push_back(op); });
      add(at, born, key_seq, id, op, /*keyed=*/true);
    };
    auto reserve = [&] {
      const uint64_t got = sched.ReserveSeq();
      EXPECT_EQ(got, ++seq);
      return got;
    };
    auto drain_model_until = [&](TimeNs t) {
      while (!model.empty() && std::get<0>(model.begin()->first) <= t.count()) {
        expected.push_back(model.begin()->second);
        live.erase(model.begin()->second);
        model.erase(model.begin());
      }
    };
    constexpr uint64_t kTop = uint64_t{1} << 63;
    // (born, seq) reserved now and scheduled a few steps later, the way a
    // port reserves its completion's key when a frame starts.
    std::deque<std::pair<TimeNs, uint64_t>> reserved;

    // Runs to `t` and checks the firing order, pending count, clock and
    // structure against the model.
    auto run_until = [&](TimeNs t, int step) {
      horizon = t;
      sched.RunUntil(horizon);
      drain_model_until(horizon);
      ASSERT_EQ(executed, expected) << "divergence at step " << step
                                    << " (seed " << seed << ")";
      ASSERT_EQ(sched.pending(), model.size());
      ASSERT_EQ(sched.now(), horizon);
      ExpectHeapStructurallyValid(sched, step, seed);
    };

    int burst_overflows = 0;  // bursts that sent their tail to the far heap
    int ring_twins = 0;       // same-time twins of a far event that landed in the ring

    // Prologue, on the empty queue: pop at a bucket that is not the first of
    // its bitmap word, then push one event into the span's last bucket (its
    // index wraps to just below the popped one, in the same word) and one a
    // few words later. The first-bucket search must skip the wrapped bits
    // and fire the later-word event first.
    {
      const TimeNs pop_at = kWidth * (64 * rng.UniformInt(0, 200) + rng.UniformInt(1, 63));
      schedule(pop_at);
      run_until(pop_at, -1);
      schedule(pop_at + kSpan - kWidth);
      schedule(pop_at + kWidth * (64 * rng.UniformInt(1, 100)));
      run_until(pop_at + kSpan, -1);
      if (HasFatalFailure()) {
        return;
      }
    }

    for (int step = 0; step < kOpsPerSeed; ++step) {
      const double dice = rng.Uniform();
      if (dice < 0.30 || live.empty()) {
        // Schedule at a random near-future time (often colliding, to stress
        // the FIFO tie-break).
        schedule(horizon + rng.UniformInt(0, 500));
      } else if (dice < 0.38) {
        // Keyed, born in (now, at] under a fresh number, half of them with
        // the top bit: a delivery scheduled when its frame starts.
        const TimeNs at = horizon + rng.UniformInt(1, 500);
        const TimeNs born = horizon + rng.UniformInt(1, (at - horizon).count());
        schedule_keyed(at, born, reserve() | (rng.Bernoulli(0.5) ? kTop : 0));
      } else if (dice < 0.45) {
        // Reserve a key now, or schedule the oldest reservation due after
        // the clock: a completion scheduled when a packet queues.
        if (reserved.empty() || rng.Bernoulli(0.4)) {
          reserved.emplace_back(horizon, reserve());
        } else {
          const auto [born, key_seq] = reserved.front();
          reserved.pop_front();
          const TimeNs at =
              std::max(horizon + TimeNs(1), born + TimeNs(rng.UniformInt(0, 500)));
          schedule_keyed(at, born, key_seq);
        }
      } else if (dice < 0.60) {
        // Delay log-uniform over [0, 4 ring spans]: mostly ring, some far.
        const double hi = std::log(static_cast<double>(4 * kSpan.count()) + 1.0);
        schedule(horizon + static_cast<int64_t>(std::exp(rng.Uniform(0.0, hi)) - 1.0));
      } else if (dice < 0.62) {
        // Burst in one bucket, latest first: every push after the first walks
        // past all earlier ones, so the last few exceed the walk cap.
        const TimeNs bucket =
            kWidth * (horizon.count() / kWidth.count() + 1 + rng.UniformInt(0, 8));
        const uint64_t far_before = sched.queue_counts().far_pushes;
        for (int k = 0; k < kBurst; ++k) {
          schedule(bucket + kWidth - TimeNs(1 + k));
        }
        // All kBurst go far when the bucket lies beyond the ring's span.
        const uint64_t far = sched.queue_counts().far_pushes - far_before;
        burst_overflows += far > 0 && far < kBurst ? 1 : 0;
      } else if (dice < 0.63) {
        // An event beyond the ring's span goes to the far heap. Then a pop
        // half a span before it brings its time within the ring, and a twin
        // pushed at the same time lands in the ring: the far one, pushed
        // first, must still fire first.
        const TimeNs at = horizon + kSpan + TimeNs(rng.UniformInt(0, 500));
        schedule(at);
        schedule(at - kSpan / 2);
        run_until(at - kSpan / 2, step);
        if (HasFatalFailure()) {
          return;
        }
        const uint64_t ring_before = sched.queue_counts().ring_pushes;
        schedule(at);
        ring_twins += sched.queue_counts().ring_pushes > ring_before ? 1 : 0;
      } else if (dice < 0.80) {
        // Cancel a random live event.
        auto it = live.begin();
        std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        EXPECT_TRUE(sched.Cancel(it->second.second));
        // Double-cancel must be a no-op.
        EXPECT_FALSE(sched.Cancel(it->second.second));
        model.erase(it->second.first);
        live.erase(it);
      } else {
        // Run forward a random amount — now and then an idle jump past the
        // ring's span — and drain the model to match.
        run_until(horizon + (dice < 0.985 ? TimeNs(rng.UniformInt(0, 400))
                                          : TimeNs(rng.UniformInt(kSpan.count(),
                                                                  3 * kSpan.count()))),
                  step);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
    sched.Run();
    drain_model_until(INT64_MAX);

    ASSERT_EQ(executed, expected) << "final divergence (seed " << seed << ")";
    EXPECT_EQ(sched.pending(), 0u);
    EXPECT_EQ(sched.executed(), executed.size());
    // No event fired twice.
    std::vector<int> sorted = executed;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
        << "an event executed twice (seed " << seed << ")";

    // The op mix reached every path it is meant to.
    const auto& c = sched.queue_counts();
    EXPECT_GT(c.far_pops, 0u) << "seed " << seed;
    EXPECT_GT(c.ring_cancels, 0u) << "seed " << seed;
    EXPECT_GT(c.far_cancels, 0u) << "seed " << seed;
    EXPECT_GT(burst_overflows, 0) << "seed " << seed;
    EXPECT_GT(ring_twins, 0) << "seed " << seed;
    EXPECT_GT(keyed_before_peers, 0) << "seed " << seed;
    EXPECT_GT(horizon, 50 * kSpan) << "seed " << seed;  // bucket indices wrapped
  }
}

TEST(SchedulerFuzzTest, FifoOrderWithinEqualTimesSurvivesCancellations) {
  Rng rng(99);
  Scheduler sched;
  std::vector<int> executed;
  std::vector<int> expected;
  std::vector<Scheduler::EventId> ids;
  // 200 events at the same instant; cancel a random subset.
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sched.ScheduleAt(1000, [i, &executed] { executed.push_back(i); }));
  }
  for (int i = 0; i < 200; ++i) {
    if (rng.Bernoulli(0.4)) {
      sched.Cancel(ids[static_cast<size_t>(i)]);
    } else {
      expected.push_back(i);
    }
  }
  sched.Run();
  EXPECT_EQ(executed, expected);
}

// Regression: cancelling an already-fired event used to insert a tombstone
// and decrement the pending count, underflowing it (the count is a size_t)
// and leaking the tombstone. The queue detects the stale handle via its
// generation counter and treats the cancel as the documented no-op.
TEST(SchedulerFuzzTest, CancelAfterFireIsANoOp) {
  Scheduler sched;
  int fired = 0;
  Scheduler::EventId id = sched.ScheduleAt(10, [&fired] { ++fired; });
  EXPECT_EQ(sched.pending(), 1u);
  sched.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending(), 0u);

  EXPECT_FALSE(sched.Cancel(id));   // already fired: must not "succeed"
  EXPECT_EQ(sched.pending(), 0u);   // and must not underflow the count
  EXPECT_FALSE(sched.Cancel(id));

  // The scheduler stays fully usable: new events (which may recycle the
  // fired event's slot) schedule, count, and cancel correctly.
  Scheduler::EventId id2 = sched.ScheduleAfter(5, [&fired] { ++fired; });
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_FALSE(sched.Cancel(id));   // stale handle must not hit the new event
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_TRUE(sched.Cancel(id2));
  EXPECT_EQ(sched.pending(), 0u);
  sched.Run();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace tfc
