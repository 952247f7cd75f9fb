// Tests for the workload layer: incast app semantics, benchmark traffic
// generation, FCT binning, persistent flows, protocol suite plumbing, and
// the scenario builder.

#include <gtest/gtest.h>

#include <vector>

#include "src/topo/topologies.h"
#include "src/workload/benchmark_traffic.h"
#include "src/workload/fct.h"
#include "src/workload/incast.h"
#include "src/workload/persistent_flow.h"
#include "src/workload/protocol.h"
#include "src/workload/scenario.h"

namespace tfc {
namespace {

TEST(FctBinsTest, SizeBinEdgesMatchThePaper) {
  EXPECT_EQ(SizeBin(500), 0);             // <1KB
  EXPECT_EQ(SizeBin(999), 0);
  EXPECT_EQ(SizeBin(1'000), 1);           // 1-10KB
  EXPECT_EQ(SizeBin(9'999), 1);
  EXPECT_EQ(SizeBin(10'000), 2);          // 10-100KB
  EXPECT_EQ(SizeBin(99'999), 2);
  EXPECT_EQ(SizeBin(100'000), 3);         // 100KB-1MB
  EXPECT_EQ(SizeBin(1'000'000), 4);       // 1-10MB
  EXPECT_EQ(SizeBin(10'000'000), 5);      // >10MB
  EXPECT_EQ(SizeBin(100'000'000), 5);
}

TEST(FctRecorderTest, RoutesSamplesToTheRightPopulation) {
  FctRecorder rec;
  rec.AddQuery(Microseconds(100));
  rec.AddQuery(Microseconds(300));
  rec.AddBackground(5'000, Microseconds(50));
  rec.AddBackground(5'000'000, Milliseconds(20));

  EXPECT_EQ(rec.query().count(), 2u);
  EXPECT_DOUBLE_EQ(rec.query().Mean(), 200.0);
  EXPECT_EQ(rec.background(1).count(), 1u);
  EXPECT_EQ(rec.background(4).count(), 1u);
  EXPECT_EQ(rec.background(0).count(), 0u);
}

TEST(WebSearchSizesTest, DistributionIsHeavyTailed) {
  EmpiricalCdf cdf = WebSearchFlowSizes();
  Rng rng(3);
  int small = 0;
  int huge = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = cdf.Sample(rng);
    small += v < 10'000 ? 1 : 0;
    huge += v > 10'000'000 ? 1 : 0;
  }
  // ~50% of flows under 10 KB, ~2% above 10 MB.
  EXPECT_NEAR(small / static_cast<double>(n), 0.50, 0.03);
  EXPECT_NEAR(huge / static_cast<double>(n), 0.02, 0.01);
}

TEST(ProtocolSuiteTest, MakesTheRightSenderKind) {
  Network net(1);
  StarTopology topo = BuildStar(net, 2);
  ProtocolSuite suite;

  suite.protocol = Protocol::kTcp;
  auto tcp = suite.MakeSender(&net, topo.hosts[0], topo.hosts[1]);
  EXPECT_NE(dynamic_cast<TcpSender*>(tcp.get()), nullptr);
  EXPECT_EQ(dynamic_cast<DctcpSender*>(tcp.get()), nullptr);

  suite.protocol = Protocol::kDctcp;
  auto dctcp = suite.MakeSender(&net, topo.hosts[0], topo.hosts[1]);
  EXPECT_NE(dynamic_cast<DctcpSender*>(dctcp.get()), nullptr);

  suite.protocol = Protocol::kTfc;
  auto tfc_sender = suite.MakeSender(&net, topo.hosts[0], topo.hosts[1]);
  EXPECT_NE(dynamic_cast<TfcSender*>(tfc_sender.get()), nullptr);
}

TEST(ProtocolSuiteTest, EcnThresholdOnlyForDctcp) {
  ProtocolSuite suite;
  suite.protocol = Protocol::kTcp;
  EXPECT_EQ(suite.EcnThresholdBytes(kGbps), 0u);
  suite.protocol = Protocol::kTfc;
  EXPECT_EQ(suite.EcnThresholdBytes(kGbps), 0u);
  suite.protocol = Protocol::kDctcp;
  EXPECT_EQ(suite.EcnThresholdBytes(kGbps), kDctcpMarkingThreshold1G);
  EXPECT_EQ(suite.EcnThresholdBytes(10 * kGbps), kDctcpMarkingThreshold10G);
}

TEST(PersistentFlowTest, KeepsPipeSaturatedWhileActive) {
  Network net(2);
  StarTopology topo = BuildStar(net, 2);
  ProtocolSuite suite;
  suite.protocol = Protocol::kTcp;
  PersistentFlow flow(suite.MakeSender(&net, topo.hosts[0], topo.hosts[1]));
  flow.Start();
  net.scheduler().RunUntil(Milliseconds(50));
  const uint64_t first = flow.delivered_bytes();
  EXPECT_GT(first, 0u);

  flow.SetActive(false);
  net.scheduler().RunUntil(Milliseconds(100));
  const uint64_t idle_start = flow.delivered_bytes();
  net.scheduler().RunUntil(Milliseconds(150));
  // Inactive: at most the residual write drains, then nothing.
  EXPECT_EQ(flow.delivered_bytes(), idle_start);

  flow.SetActive(true);
  net.scheduler().RunUntil(Milliseconds(200));
  EXPECT_GT(flow.delivered_bytes(), idle_start);
}

TEST(IncastAppTest, CompletesAllRoundsAndCountsBytes) {
  Network net(4);
  StarTopology topo = BuildStar(net, 5);
  ProtocolSuite suite;
  suite.protocol = Protocol::kTfc;
  suite.InstallSwitchLogic(net);
  std::vector<Host*> senders(topo.hosts.begin() + 1, topo.hosts.end());
  IncastConfig cfg;
  cfg.block_bytes = 64 * 1024;
  cfg.rounds = 3;
  IncastApp app(&net, suite, topo.hosts[0], senders, cfg);
  bool finished_cb = false;
  app.on_finished = [&] { finished_cb = true; };
  app.Start();
  net.scheduler().RunUntil(Seconds(5));

  EXPECT_TRUE(app.finished());
  EXPECT_TRUE(finished_cb);
  EXPECT_EQ(app.rounds_completed(), 3);
  for (const auto& f : app.flows()) {
    EXPECT_EQ(f->delivered_bytes(), 3u * 64u * 1024u);
    EXPECT_EQ(f->state(), ReliableSender::State::kClosed);
  }
  EXPECT_GT(app.goodput_bps(), 0.0);
}

TEST(IncastAppTest, RoundsAreBarrierSynchronized) {
  // With one artificially slow sender (tiny path), faster senders must not
  // run ahead: after the run, every flow has delivered the same rounds.
  Network net(4);
  StarTopology topo = BuildStar(net, 4);
  ProtocolSuite suite;
  suite.protocol = Protocol::kTcp;
  std::vector<Host*> senders(topo.hosts.begin() + 1, topo.hosts.end());
  IncastConfig cfg;
  cfg.block_bytes = 32 * 1024;
  cfg.rounds = 4;
  IncastApp app(&net, suite, topo.hosts[0], senders, cfg);
  app.Start();
  net.scheduler().RunUntil(Seconds(5));
  ASSERT_TRUE(app.finished());
  for (const auto& f : app.flows()) {
    EXPECT_EQ(f->delivered_bytes(), 4u * 32u * 1024u);
  }
}

TEST(BenchmarkTrafficTest, GeneratesAndCompletesFlows) {
  Network net(8);
  TestbedTopology topo = BuildTestbed(net);
  ProtocolSuite suite;
  suite.protocol = Protocol::kTfc;
  suite.InstallSwitchLogic(net);

  BenchmarkTrafficConfig cfg;
  cfg.query_interarrival = Milliseconds(5);
  cfg.background_interarrival = Milliseconds(5);
  cfg.stop_time = Milliseconds(200);
  BenchmarkTrafficApp app(&net, suite, topo.hosts, cfg);
  app.Start();
  net.scheduler().RunUntil(Seconds(20));

  EXPECT_GT(app.flows_started(), 50u);
  // Everything that started eventually completed (run long past stop time).
  EXPECT_EQ(app.flows_completed(), app.flows_started());
  EXPECT_GT(app.fct().query().count(), 0u);
  // Query FCT at 1 Gbps with 2 KB payloads: well under a millisecond each.
  EXPECT_LT(app.fct().query().Mean(), 5'000.0);  // microseconds
}

// At one seed every protocol runs the same benchmark traffic. Arrivals,
// sizes and endpoints come from the app's own stream, so TFC's probe jitter,
// drawn from the network's stream, cannot redraw them.
TEST(BenchmarkTrafficTest, EveryProtocolStartsTheSameFlows) {
  auto flows_of = [](Protocol protocol) {
    Scenario s;
    s.topology = Topology::kTestbed;
    s.workload = Workload::kBenchmark;
    s.suite.protocol = protocol;
    s.seed = 131;
    s.benchmark.query_interarrival = Milliseconds(2);
    s.benchmark.background_interarrival = Milliseconds(4);
    s.benchmark.stop_time = Milliseconds(100);
    s.horizon = s.benchmark.stop_time + Seconds(30.0);
    ScenarioRun run(s);
    run.Start();
    run.Run();
    BenchmarkTrafficApp& app = *run.benchmark();
    // Started and completed flows, queries, then background flows per size bin.
    std::vector<uint64_t> counts = {app.flows_started(), app.flows_completed(),
                                    app.fct().query().count()};
    for (int bin = 0; bin < kNumSizeBins; ++bin) {
      counts.push_back(app.fct().background(bin).count());
    }
    return counts;
  };
  const std::vector<uint64_t> tfc = flows_of(Protocol::kTfc);
  EXPECT_GT(tfc[0], 100u);
  EXPECT_EQ(tfc, flows_of(Protocol::kDctcp));
}

TEST(BenchmarkTrafficTest, QueryFaninTargetsOneAggregator) {
  Network net(8);
  StarTopology topo = BuildStar(net, 6);
  ProtocolSuite suite;
  suite.protocol = Protocol::kTcp;
  BenchmarkTrafficConfig cfg;
  cfg.query_interarrival = Milliseconds(10);
  cfg.background_interarrival = 0;  // queries only
  cfg.query_fanin = 3;
  cfg.stop_time = Milliseconds(15);  // exactly one query expected (roughly)
  BenchmarkTrafficApp app(&net, suite, topo.hosts, cfg);
  app.Start();
  net.scheduler().RunUntil(Seconds(2));
  ASSERT_GT(app.flows_started(), 0u);
  EXPECT_EQ(app.flows_started() % 3, 0u);  // flows come in fan-in groups
}

TEST(TopologyTest, TestbedShape) {
  Network net(1);
  TestbedTopology topo = BuildTestbed(net);
  EXPECT_EQ(topo.hosts.size(), 9u);
  EXPECT_EQ(topo.switches.size(), 4u);
  // NF0 connects only to the three leaves.
  EXPECT_EQ(topo.switches[0]->ports().size(), 3u);
  // Each leaf: one uplink + three hosts.
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(topo.switches[static_cast<size_t>(i)]->ports().size(), 4u);
  }
}

TEST(TopologyTest, LeafSpineShape) {
  Network net(1);
  LeafSpineTopology topo = BuildLeafSpine(net, 18, 20);
  EXPECT_EQ(topo.all_hosts.size(), 360u);
  EXPECT_EQ(topo.leaves.size(), 18u);
  EXPECT_EQ(topo.spine->ports().size(), 18u);
  for (Switch* leaf : topo.leaves) {
    EXPECT_EQ(leaf->ports().size(), 21u);  // uplink + 20 hosts
  }
  // Uplinks are 10 Gbps, host links 1 Gbps.
  EXPECT_EQ(Network::FindPort(topo.leaves[0], topo.spine)->bps(), 10 * kGbps);
  EXPECT_EQ(Network::FindPort(topo.leaves[0], topo.racks[0][0])->bps(), kGbps);
}

// The Sec. 6.2.1 fabric: a 10 Gbps star with 512 KB switch buffers.
TEST(ScenarioTest, BuildsTheProvisionedFabric) {
  Scenario s;
  s.suite.protocol = Protocol::kDctcp;
  s.link_bps = 10 * kGbps;
  s.switch_buffer_bytes = 512 * 1024;
  s.senders = 8;
  {
    ScenarioRun run(s);
    ASSERT_EQ(run.hosts().size(), 9u);
    EXPECT_EQ(run.bottleneck()->peer(), run.hosts()[0]);
    for (const auto& node : run.net().nodes()) {
      for (const auto& port : node->ports()) {
        EXPECT_EQ(port->buffer_limit(),
                  node->is_host() ? Bytes(8 * 1024 * 1024) : Bytes(512 * 1024));
      }
    }
  }
  s.suite.protocol = Protocol::kTfc;
  ScenarioRun run(s);
  for (const auto& node : run.net().nodes()) {
    for (const auto& port : node->ports()) {
      EXPECT_EQ(TfcPortAgent::FromPort(port.get()) != nullptr, !node->is_host());
    }
  }
}

TEST(ScenarioDeathTest, LongFlowsNeedAHorizon) {
  Scenario s;
  s.workload = Workload::kLongFlows;
  s.flows = 2;
  ScenarioRun run(s);
  run.Start();
  EXPECT_DEATH(run.Run(), "kLongFlows");
}

TEST(ScenarioDeathTest, IncastNeedsSendersPlusOneHosts) {
  Scenario s;
  s.topology = Topology::kTestbed;
  s.senders = 9;  // the testbed has 9 hosts, one of them the receiver
  ScenarioRun run(s);
  EXPECT_DEATH(run.Start(), "senders");
}

}  // namespace
}  // namespace tfc
