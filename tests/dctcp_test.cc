// DCTCP behaviour tests: marking, alpha estimation, bounded queues.

#include <gtest/gtest.h>

#include <string>

#include "src/dctcp/dctcp.h"
#include "src/net/network.h"
#include "src/sim/stats.h"
#include "src/sim/telemetry.h"
#include "src/workload/persistent_flow.h"

namespace tfc {
namespace {

struct Dumbbell {
  Network net;
  Host* a;
  Host* b;
  Switch* s;

  explicit Dumbbell(uint64_t ecn_threshold) : net(13) {
    LinkOptions opts;
    opts.ecn_threshold_bytes = ecn_threshold;
    a = net.AddHost("a");
    b = net.AddHost("b");
    s = net.AddSwitch("s");
    net.Link(a, s, kGbps, Microseconds(5), opts);
    net.Link(s, b, kGbps, Microseconds(5), opts);
    net.BuildRoutes();
  }
};

TEST(DctcpTest, QueueStabilizesNearMarkingThreshold) {
  Dumbbell d(kDctcpMarkingThreshold1G);
  PersistentFlow flow(
      std::make_unique<DctcpSender>(&d.net, d.a, d.b, TransportConfig()));
  flow.Start();

  Port* bottleneck = Network::FindPort(d.s, d.b);
  d.net.scheduler().RunUntil(Seconds(1.0));  // warm up
  bottleneck->ResetMaxQueue();
  const std::string queue_name = bottleneck->metric_prefix() + ".queue_bytes";
  TimeSeriesRecorder recorder(&d.net.scheduler(), &d.net.metrics());
  recorder.Watch(queue_name);
  recorder.Start(Microseconds(100), /*first_delay=*/0);
  d.net.scheduler().RunUntil(Seconds(3.0));
  recorder.Stop();
  RunningStats queue;
  for (const TimeSeriesRecorder::Sample& s : recorder.Series(queue_name)) {
    queue.Add(s.v);
  }

  // Paper Fig. 8: DCTCP holds the queue around K (~30 KB), far below the
  // 256 KB buffer that TCP fills.
  EXPECT_LT(queue.max(), 100'000.0);
  EXPECT_GT(queue.mean(), 1'000.0);
  EXPECT_LT(queue.mean(), 60'000.0);
}

TEST(DctcpTest, AlphaConvergesBelowOneUnderMildCongestion) {
  Dumbbell d(kDctcpMarkingThreshold1G);
  auto sender = std::make_unique<DctcpSender>(&d.net, d.a, d.b, TransportConfig());
  DctcpSender* raw = sender.get();
  PersistentFlow flow(std::move(sender));
  flow.Start();
  d.net.scheduler().RunUntil(Seconds(2.0));

  // A single long flow sees only occasional marks: alpha must have decayed
  // from its initial 1.0 but stays positive.
  EXPECT_LT(raw->alpha(), 0.9);
  EXPECT_GE(raw->alpha(), 0.0);
}

TEST(DctcpTest, AchievesFullThroughputDespiteMarking) {
  Dumbbell d(kDctcpMarkingThreshold1G);
  PersistentFlow flow(
      std::make_unique<DctcpSender>(&d.net, d.a, d.b, TransportConfig()));
  flow.Start();
  d.net.scheduler().RunUntil(Seconds(1.0));
  const uint64_t before = flow.delivered_bytes();
  d.net.scheduler().RunUntil(Seconds(2.0));
  const double bps = static_cast<double>(flow.delivered_bytes() - before) * 8.0;
  EXPECT_GT(bps, 0.90e9);
}

TEST(DctcpTest, NoMarkingBehavesLikeTcp) {
  Dumbbell d(/*ecn_threshold=*/0);
  auto sender = std::make_unique<DctcpSender>(&d.net, d.a, d.b, TransportConfig());
  DctcpSender* raw = sender.get();
  PersistentFlow flow(std::move(sender));
  flow.Start();
  d.net.scheduler().RunUntil(Seconds(1.0));
  // Without CE marks alpha decays toward zero and the window keeps growing.
  EXPECT_LT(raw->alpha(), 0.15);
  EXPECT_GT(raw->cwnd_bytes(), 10.0 * kMssBytes);
}

TEST(DctcpTest, ManyFlowsStillBoundQueueBelowDropTailLevels) {
  Dumbbell d(kDctcpMarkingThreshold1G);
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (int i = 0; i < 5; ++i) {
    flows.push_back(std::make_unique<PersistentFlow>(
        std::make_unique<DctcpSender>(&d.net, d.a, d.b, TransportConfig())));
    flows.back()->Start();
  }
  Port* bottleneck = Network::FindPort(d.s, d.b);
  d.net.scheduler().RunUntil(Seconds(1.0));
  bottleneck->ResetMaxQueue();
  d.net.scheduler().RunUntil(Seconds(2.0));
  EXPECT_LT(bottleneck->max_queue_bytes(), 150'000u);
}

}  // namespace
}  // namespace tfc
