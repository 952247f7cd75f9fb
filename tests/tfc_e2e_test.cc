// End-to-end TFC protocol tests: the paper's headline properties — high
// utilization, fairness, near-zero queueing, fast convergence, rare loss,
// work conservation, and correct handling of silent/on-off flows.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/sim/stats.h"
#include "src/sim/telemetry.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"
#include "src/workload/incast.h"
#include "src/workload/persistent_flow.h"
#include "src/workload/protocol.h"

namespace tfc {
namespace {

ProtocolSuite TfcSuite() {
  ProtocolSuite suite;
  suite.protocol = Protocol::kTfc;
  return suite;
}

// N senders on one switch, one receiver.
struct Star {
  Network net;
  StarTopology topo;
  Host* receiver;
  std::vector<Host*> senders;

  explicit Star(int num_senders, BitsPerSec bps = kGbps,
                LinkOptions opts = LinkOptions(), uint64_t seed = 21)
      : net(seed),
        topo(BuildStar(net, num_senders + 1, opts, bps, Microseconds(5))) {
    receiver = topo.hosts[0];
    senders.assign(topo.hosts.begin() + 1, topo.hosts.end());
    InstallTfcSwitches(net);
  }

  Port* bottleneck() { return Network::FindPort(topo.sw, receiver); }
};

TEST(TfcE2eTest, WindowAcquisitionPhasePrecedesData) {
  Star s(1);
  TfcSender flow(&s.net, s.senders[0], s.receiver, TfcHostConfig());
  flow.Write(1'000'000);
  flow.Start();
  EXPECT_FALSE(flow.window_acquired());

  s.net.scheduler().RunUntil(Microseconds(40));  // SYN exchanged, probe out
  // No data before the probe's RMA returns.
  EXPECT_EQ(flow.stats().data_packets_sent, 0u);
  EXPECT_EQ(flow.probes_sent(), 1u);

  s.net.scheduler().RunUntil(Milliseconds(2));
  EXPECT_TRUE(flow.window_acquired());
  EXPECT_GT(flow.stats().data_packets_sent, 0u);
}

TEST(TfcE2eTest, SingleFlowReachesTargetUtilization) {
  Star s(1);
  PersistentFlow flow(std::make_unique<TfcSender>(&s.net, s.senders[0], s.receiver,
                                                  TfcHostConfig()));
  flow.Start();
  s.net.scheduler().RunUntil(Milliseconds(100));
  const uint64_t before = flow.delivered_bytes();
  s.net.scheduler().RunUntil(Milliseconds(300));
  const double bps = static_cast<double>(flow.delivered_bytes() - before) * 8.0 / 0.2;
  // rho0 = 0.97 of 1 Gbps wire => ~0.97 * 949 Mbps payload, with slack.
  EXPECT_GT(bps, 0.85e9);
  EXPECT_LT(bps, 0.96e9);
}

TEST(TfcE2eTest, FlowsShareFairlyAtSmallTimescale) {
  Star s(4);
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (Host* h : s.senders) {
    flows.push_back(std::make_unique<PersistentFlow>(
        std::make_unique<TfcSender>(&s.net, h, s.receiver, TfcHostConfig())));
    flows.back()->Start();
  }
  s.net.scheduler().RunUntil(Milliseconds(100));
  std::vector<uint64_t> base;
  for (auto& f : flows) {
    base.push_back(f->delivered_bytes());
  }
  // 20 ms sampling window — the paper's Fig. 9 granularity.
  s.net.scheduler().RunUntil(Milliseconds(120));
  std::vector<double> rates;
  double total = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    rates.push_back(static_cast<double>(flows[i]->delivered_bytes() - base[i]));
    total += rates.back();
  }
  EXPECT_GT(JainFairness(rates), 0.99);
  EXPECT_GT(total * 8.0 / 0.02, 0.85e9);  // and the link is still full
}

TEST(TfcE2eTest, NearZeroQueueInSteadyState) {
  Star s(4);
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (Host* h : s.senders) {
    flows.push_back(std::make_unique<PersistentFlow>(
        std::make_unique<TfcSender>(&s.net, h, s.receiver, TfcHostConfig())));
    flows.back()->Start();
  }
  s.net.scheduler().RunUntil(Milliseconds(100));
  s.bottleneck()->ResetMaxQueue();
  const std::string queue_name = s.bottleneck()->metric_prefix() + ".queue_bytes";
  TimeSeriesRecorder recorder(&s.net.scheduler(), &s.net.metrics());
  recorder.Watch(queue_name);
  recorder.Start(Microseconds(100), /*first_delay=*/0);
  s.net.scheduler().RunUntil(Milliseconds(400));
  RunningStats queue;
  for (const TimeSeriesRecorder::Sample& sample : recorder.Series(queue_name)) {
    queue.Add(sample.v);
  }

  // Paper Fig. 8: TFC's instantaneous queue stays within a few KB (max
  // observed ~9 KB) while TCP fills the 256 KB buffer.
  EXPECT_LT(s.bottleneck()->max_queue_bytes(), 15'000u);
  EXPECT_LT(queue.mean(), 8'000.0);
  EXPECT_EQ(s.bottleneck()->drops(), 0u);
}

TEST(TfcE2eTest, NewFlowConvergesWithinMilliseconds) {
  Star s(2);
  PersistentFlow f1(std::make_unique<TfcSender>(&s.net, s.senders[0], s.receiver,
                                                TfcHostConfig()));
  f1.Start();
  s.net.scheduler().RunUntil(Milliseconds(100));

  auto sender2 = std::make_unique<TfcSender>(&s.net, s.senders[1], s.receiver,
                                             TfcHostConfig());
  TfcSender* raw2 = sender2.get();
  PersistentFlow f2(std::move(sender2));
  f2.Start();

  // Within a handful of RTTs (connection setup + window acquisition + one
  // slot), the newcomer holds a window within 30% of the incumbent's.
  s.net.scheduler().RunUntil(Milliseconds(103));
  EXPECT_TRUE(raw2->window_acquired());
  const uint64_t d2_before = f2.delivered_bytes();
  const uint64_t d1_before = f1.delivered_bytes();
  s.net.scheduler().RunUntil(Milliseconds(113));
  const double r1 = static_cast<double>(f1.delivered_bytes() - d1_before);
  const double r2 = static_cast<double>(f2.delivered_bytes() - d2_before);
  EXPECT_GT(r2, 0.7 * r1);
  EXPECT_LT(r2, 1.4 * r1);
}

TEST(TfcE2eTest, FourSimultaneousJoinersBarelyMoveTheQueue) {
  // Sec. 7's flow-join argument: an explicit-rate protocol hands each joiner
  // the current fair rate while the incumbents still send at theirs, and the
  // overload parks in the buffer until its control loop reacts. TFC
  // recomputes the split within a slot. (This setup measured a 66.8 KB join
  // queue for such a rate protocol, against 18.2 KB for TFC.)
  Network net(33);
  StarTopology topo = BuildStar(net, 6, LinkOptions(), kGbps, Microseconds(20));
  InstallTfcSwitches(net);
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  auto add = [&](int host) {
    flows.push_back(std::make_unique<PersistentFlow>(std::make_unique<TfcSender>(
        &net, topo.hosts[static_cast<size_t>(host)], topo.hosts[0], TfcHostConfig())));
    flows.back()->Start();
  };
  add(1);
  net.scheduler().RunUntil(Milliseconds(300));
  Port* bottleneck = Network::FindPort(topo.sw, topo.hosts[0]);
  bottleneck->ResetMaxQueue();
  for (int h = 2; h <= 5; ++h) {
    add(h);  // four joiners at once
  }
  net.scheduler().RunUntil(Milliseconds(350));
  EXPECT_LT(bottleneck->max_queue_bytes(), 32'000u);
  EXPECT_EQ(bottleneck->drops(), 0u);
}

TEST(TfcE2eTest, IncastFiftySendersNoLossNoTimeouts) {
  Star s(50, kGbps, LinkOptions(), 33);
  IncastConfig cfg;
  cfg.block_bytes = 256 * 1024;
  cfg.rounds = 5;
  IncastApp app(&s.net, TfcSuite(), s.receiver, s.senders, cfg);
  app.Start();
  s.net.scheduler().RunUntil(Seconds(10));

  ASSERT_TRUE(app.finished());
  EXPECT_EQ(app.total_timeouts(), 0u);
  EXPECT_EQ(s.bottleneck()->drops(), 0u);
  EXPECT_GT(app.goodput_bps(), 0.80e9);
}

TEST(TfcE2eTest, WorkConservationAcrossTwoBottlenecks) {
  // Paper Fig. 11 scenario: n1=8 flows h1->h4, n2=2 h1->h3, n3=2 h2->h3.
  Network net(9);
  MultiBottleneckTopology topo = BuildMultiBottleneck(net);
  InstallTfcSwitches(net);
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  auto add = [&](Host* src, Host* dst) {
    flows.push_back(std::make_unique<PersistentFlow>(
        std::make_unique<TfcSender>(&net, src, dst, TfcHostConfig())));
    flows.back()->Start();
  };
  for (int i = 0; i < 8; ++i) {
    add(topo.h1, topo.h4);
  }
  for (int i = 0; i < 2; ++i) {
    add(topo.h1, topo.h3);
  }
  for (int i = 0; i < 2; ++i) {
    add(topo.h2, topo.h3);
  }

  Port* s1_up = Network::FindPort(topo.s1, topo.s2);
  Port* s2_down = Network::FindPort(topo.s2, topo.h3);
  net.scheduler().RunUntil(Milliseconds(200));
  const Bytes up0 = s1_up->tx_bytes();
  const Bytes down0 = s2_down->tx_bytes();
  net.scheduler().RunUntil(Milliseconds(700));
  const double up_bps = static_cast<double>(s1_up->tx_bytes() - up0) * 8.0 / 0.5;
  const double down_bps = static_cast<double>(s2_down->tx_bytes() - down0) * 8.0 / 0.5;

  // Both bottlenecks stay above 900 Mbps: the n2 flows are limited at S1,
  // and token adjustment lets the n3 flows absorb the slack at S2.
  EXPECT_GT(up_bps, 0.90e9);
  EXPECT_GT(down_bps, 0.90e9);
  // Near-zero queueing at both (paper: ~2 KB).
  EXPECT_LT(s1_up->queue_bytes(), 20'000u);
  EXPECT_LT(s2_down->queue_bytes(), 20'000u);
  EXPECT_EQ(s1_up->drops() + s2_down->drops(), 0u);

  // And the n3 flows (indices 10, 11) got strictly more than the n2 flows
  // (8, 9), which are bottlenecked upstream.
  EXPECT_GT(flows[10]->delivered_bytes(), flows[8]->delivered_bytes());
}

TEST(TfcE2eTest, SilentFlowsAreExcludedFromEffectiveFlows) {
  Star s(6);
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (Host* h : s.senders) {
    flows.push_back(std::make_unique<PersistentFlow>(
        std::make_unique<TfcSender>(&s.net, h, s.receiver, TfcHostConfig())));
    flows.back()->Start();
  }
  TfcPortAgent* agent = TfcPortAgent::FromPort(s.bottleneck());

  auto mean_effective_flows = [&](TimeNs from, TimeNs until) {
    double sum = 0;
    int count = 0;
    agent->on_slot = [&](const TfcPortAgent::SlotInfo& info) {
      sum += info.effective_flows;
      ++count;
    };
    s.net.scheduler().RunUntil(from);
    sum = 0;
    count = 0;
    s.net.scheduler().RunUntil(until);
    agent->on_slot = nullptr;
    return count > 0 ? sum / count : 0.0;
  };

  const double e_all = mean_effective_flows(Milliseconds(100), Milliseconds(200));
  EXPECT_NEAR(e_all, 6.0, 1.0);

  // Half the flows go silent (held open, no data) — E must track down and
  // the remaining flows take over the freed bandwidth.
  for (int i = 0; i < 3; ++i) {
    flows[static_cast<size_t>(i)]->SetActive(false);
  }
  const double e_half = mean_effective_flows(Milliseconds(250), Milliseconds(350));
  EXPECT_NEAR(e_half, 3.0, 1.0);

  const uint64_t before = flows[5]->delivered_bytes();
  s.net.scheduler().RunUntil(Milliseconds(450));
  const double bps = static_cast<double>(flows[5]->delivered_bytes() - before) * 8.0 / 0.1;
  EXPECT_GT(bps, 0.25e9);  // ~1/3 of the link instead of 1/6
}

TEST(TfcE2eTest, ResumingFlowReacquiresWindowInsteadOfBursting) {
  Star s(2);
  auto sender = std::make_unique<TfcSender>(&s.net, s.senders[0], s.receiver,
                                            TfcHostConfig());
  TfcSender* raw = sender.get();
  PersistentFlow f1(std::move(sender));
  PersistentFlow f2(std::make_unique<TfcSender>(&s.net, s.senders[1], s.receiver,
                                                TfcHostConfig()));
  f1.Start();
  f2.Start();
  s.net.scheduler().RunUntil(Milliseconds(50));
  const uint64_t probes_before = raw->probes_sent();

  f1.SetActive(false);
  s.net.scheduler().RunUntil(Milliseconds(60));  // idle >> resume threshold
  f1.SetActive(true);
  s.net.scheduler().RunUntil(Milliseconds(61));
  EXPECT_GT(raw->probes_sent(), probes_before);
}

TEST(TfcE2eTest, CompletedDelimiterFlowDoesNotStallOthers) {
  Star s(3);
  // One short flow (likely the delimiter, it starts first) plus two long.
  TfcSender short_flow(&s.net, s.senders[0], s.receiver, TfcHostConfig());
  short_flow.Write(100'000);
  short_flow.Close();
  short_flow.Start();
  s.net.scheduler().RunUntil(Milliseconds(1));

  PersistentFlow f1(std::make_unique<TfcSender>(&s.net, s.senders[1], s.receiver,
                                                TfcHostConfig()));
  PersistentFlow f2(std::make_unique<TfcSender>(&s.net, s.senders[2], s.receiver,
                                                TfcHostConfig()));
  f1.Start();
  f2.Start();
  s.net.scheduler().RunUntil(Milliseconds(100));
  EXPECT_EQ(short_flow.state(), ReliableSender::State::kClosed);

  // The survivors keep the link full after the delimiter's FIN.
  const uint64_t before = f1.delivered_bytes() + f2.delivered_bytes();
  s.net.scheduler().RunUntil(Milliseconds(200));
  const double bps =
      static_cast<double>(f1.delivered_bytes() + f2.delivered_bytes() - before) * 8.0 / 0.1;
  EXPECT_GT(bps, 0.85e9);
}

TEST(TfcE2eTest, RareLossUnderConcurrentFlowsWithSubMssWindows) {
  // 60 concurrent long flows at 1 Gbps: fair windows are well below one MSS
  // (BDP ~6 KB), exercising the delay function. Zero drops expected.
  Star s(60, kGbps, LinkOptions(), 41);
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (Host* h : s.senders) {
    flows.push_back(std::make_unique<PersistentFlow>(
        std::make_unique<TfcSender>(&s.net, h, s.receiver, TfcHostConfig()))) ;
    flows.back()->Start();
  }
  s.net.scheduler().RunUntil(Milliseconds(300));
  EXPECT_EQ(s.bottleneck()->drops(), 0u);

  uint64_t timeouts = 0;
  uint64_t delivered = 0;
  for (auto& f : flows) {
    timeouts += f->sender().stats().timeouts;
    delivered += f->delivered_bytes();
  }
  EXPECT_EQ(timeouts, 0u);
  EXPECT_GT(static_cast<double>(delivered) * 8.0 / 0.3, 0.80e9);
}

// --- parameterized sweeps (property-style) ---

class TfcFlowCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(TfcFlowCountSweep, UtilizationFairnessQueueAndLossInvariants) {
  const int n = GetParam();
  Star s(n, kGbps, LinkOptions(), 100 + static_cast<uint64_t>(n));
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (Host* h : s.senders) {
    flows.push_back(std::make_unique<PersistentFlow>(
        std::make_unique<TfcSender>(&s.net, h, s.receiver, TfcHostConfig())));
    flows.back()->Start();
  }
  s.net.scheduler().RunUntil(Milliseconds(150));
  std::vector<uint64_t> base;
  for (auto& f : flows) {
    base.push_back(f->delivered_bytes());
  }
  s.bottleneck()->ResetMaxQueue();
  s.net.scheduler().RunUntil(Milliseconds(350));

  std::vector<double> rates;
  double total = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    rates.push_back(static_cast<double>(flows[i]->delivered_bytes() - base[i]));
    total += rates.back();
  }
  const double total_bps = total * 8.0 / 0.2;

  // Invariants, independent of flow count:
  EXPECT_GT(total_bps, 0.80e9) << "link underutilized with " << n << " flows";
  EXPECT_LT(total_bps, 0.97e9) << "overcommitted with " << n << " flows";
  EXPECT_GT(JainFairness(rates), 0.95) << "unfair with " << n << " flows";
  EXPECT_EQ(s.bottleneck()->drops(), 0u) << "dropped packets with " << n << " flows";
  // Queue bound: transient spikes stay within half the 256 KB buffer (the
  // zero-loss expectation above is the hard invariant; steady-state means
  // are checked in NearZeroQueueInSteadyState).
  EXPECT_LT(s.bottleneck()->max_queue_bytes(), 128'000u);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, TfcFlowCountSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32),
                         ::testing::PrintToStringParamName());

class TfcRho0Sweep : public ::testing::TestWithParam<int> {};

TEST_P(TfcRho0Sweep, GoodputScalesWithTargetUtilization) {
  const double rho0 = GetParam() / 100.0;
  Network net(55);
  // 100 us links keep per-flow windows well above one MSS, so rho0 (not the
  // one-packet quantization floor) governs the rate.
  StarTopology topo = BuildStar(net, 6, LinkOptions(), kGbps, Microseconds(100));
  TfcSwitchConfig sw_config;
  sw_config.rho0 = rho0;
  InstallTfcSwitches(net, sw_config);

  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (int i = 1; i <= 5; ++i) {
    flows.push_back(std::make_unique<PersistentFlow>(std::make_unique<TfcSender>(
        &net, topo.hosts[static_cast<size_t>(i)], topo.hosts[0], TfcHostConfig())));
    flows.back()->Start();
  }
  net.scheduler().RunUntil(Milliseconds(150));
  uint64_t before = 0;
  for (auto& f : flows) {
    before += f->delivered_bytes();
  }
  net.scheduler().RunUntil(Milliseconds(350));
  uint64_t after = 0;
  for (auto& f : flows) {
    after += f->delivered_bytes();
  }
  const double bps = static_cast<double>(after - before) * 8.0 / 0.2;

  // Paper Fig. 14a: receiver goodput tracks rho0. The Eq. 7 static map's
  // fixed point sits at ~sqrt(rho0 * rtt_b/rtt_m) of capacity, so assert a
  // band around that rather than rho0 itself.
  const double payload_rate = 1e9 * 1460.0 / 1538.0;
  const double expected = std::sqrt(rho0) * payload_rate;
  EXPECT_GT(bps, expected * 0.90);
  EXPECT_LT(bps, expected * 1.06);
}

INSTANTIATE_TEST_SUITE_P(Rho0, TfcRho0Sweep, ::testing::Values(90, 94, 97),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace tfc
