// Simulation-level properties: determinism for fixed seeds, byte
// conservation across the network, and scale/parameter sweeps that assert
// protocol invariants rather than point values.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/topo/topologies.h"
#include "src/workload/persistent_flow.h"
#include "src/workload/scenario.h"

namespace tfc {
namespace {

// Runs a small mixed workload and returns a behaviour fingerprint.
struct Fingerprint {
  uint64_t delivered = 0;
  uint64_t events = 0;
  uint64_t drops = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint RunFingerprint(uint64_t seed, Protocol protocol) {
  Scenario s;
  s.topology = Topology::kTestbed;
  s.workload = Workload::kBenchmark;
  s.suite.protocol = protocol;
  s.seed = seed;
  s.switch_buffer_bytes = 64 * 1024;
  s.benchmark.query_interarrival = Milliseconds(3);
  s.benchmark.background_interarrival = Milliseconds(3);
  s.benchmark.stop_time = Milliseconds(120);
  s.horizon = Milliseconds(200);
  ScenarioRun run(s);
  Network& net = run.net();
  for (Host* h : run.hosts()) {
    h->set_processing_delay(Microseconds(2), Microseconds(8));  // uses the RNG
  }
  run.Start();
  run.Run();

  Fingerprint fp;
  fp.events = net.scheduler().executed();
  for (const auto& node : net.nodes()) {
    for (const auto& port : node->ports()) {
      fp.delivered += static_cast<uint64_t>(port->tx_bytes().count());
      fp.drops += port->drops();
    }
  }
  return fp;
}

TEST(DeterminismTest, SameSeedSameProtocolIdenticalRun) {
  for (Protocol p : {Protocol::kTfc, Protocol::kDctcp, Protocol::kTcp}) {
    Fingerprint a = RunFingerprint(1234, p);
    Fingerprint b = RunFingerprint(1234, p);
    EXPECT_EQ(a, b) << "non-deterministic run for " << ProtocolName(p);
  }
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  Fingerprint a = RunFingerprint(1234, Protocol::kTfc);
  Fingerprint b = RunFingerprint(4321, Protocol::kTfc);
  EXPECT_NE(a.events, b.events);
}

// Same workload with a full fault schedule layered on top: the injected
// randomness (drops, duplication, flapping, wipes, a host outage) must be
// just as replayable as the fault-free run.
Fingerprint RunFaultFingerprint(uint64_t seed) {
  Scenario s;
  s.topology = Topology::kTestbed;
  s.workload = Workload::kBenchmark;
  s.seed = seed;
  s.benchmark.query_interarrival = Milliseconds(3);
  s.benchmark.background_interarrival = Milliseconds(3);
  s.benchmark.stop_time = Milliseconds(80);
  s.horizon = Milliseconds(150);
  ScenarioRun run(s);
  Network& net = run.net();
  for (Host* h : run.hosts()) {
    h->set_processing_delay(Microseconds(2), Microseconds(8));
  }
  FaultInjector inject(&net, seed + 99);
  FaultSpec spec;
  std::string error;
  EXPECT_TRUE(FaultSpec::Parse(
      "drop=0.01,dup=0.002,ge=0.01/0.3/0.6,flap=2ms/300us,wipe=15ms,"
      "host_down=10ms+1ms,start=1ms,stop=60ms",
      &spec, &error))
      << error;
  inject.ApplySpec(spec);
  run.Start();
  run.Run();

  Fingerprint fp;
  fp.events = net.scheduler().executed();
  fp.drops = inject.drops() + inject.dups() + inject.link_transitions() +
             inject.agent_wipes();
  for (const auto& node : net.nodes()) {
    for (const auto& port : node->ports()) {
      fp.delivered += static_cast<uint64_t>(port->tx_bytes().count());
      fp.drops += port->drops();
    }
  }
  return fp;
}

TEST(DeterminismTest, FaultScheduleReplaysBitIdentically) {
  Fingerprint a = RunFaultFingerprint(555);
  Fingerprint b = RunFaultFingerprint(555);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.drops, 0u);  // the schedule actually fired
}

TEST(DeterminismTest, FaultScheduleDivergesAcrossSeeds) {
  Fingerprint a = RunFaultFingerprint(555);
  Fingerprint b = RunFaultFingerprint(556);
  EXPECT_NE(a.events, b.events);
}

TEST(ConservationTest, EveryQueuedByteIsTransmittedOrDropped) {
  // After a finite workload fully drains, every port's queue must be empty
  // and per-port accounting must balance.
  Network net(7);
  StarTopology topo = BuildStar(net, 6);
  InstallTfcSwitches(net);
  ProtocolSuite suite;
  std::vector<std::unique_ptr<ReliableSender>> flows;
  for (int i = 1; i <= 5; ++i) {
    auto f = suite.MakeSender(&net, topo.hosts[static_cast<size_t>(i)], topo.hosts[0]);
    f->Write(777'777);
    f->Close();
    f->Start();
    flows.push_back(std::move(f));
  }
  net.scheduler().Run();

  for (const auto& f : flows) {
    EXPECT_EQ(f->delivered_bytes(), 777'777u);
    EXPECT_EQ(f->state(), ReliableSender::State::kClosed);
  }
  for (const auto& node : net.nodes()) {
    for (const auto& port : node->ports()) {
      EXPECT_EQ(port->queue_bytes(), 0u);
      EXPECT_EQ(port->queue_packets(), 0u);
    }
  }
  EXPECT_EQ(net.scheduler().pending(), 0u);  // no leaked timers
}

// TFC invariants across link speeds: zero loss, high utilization.
class TfcLinkSpeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(TfcLinkSpeedSweep, InvariantsHoldAcrossLinkRates) {
  const uint64_t gbps = static_cast<uint64_t>(GetParam());
  Scenario s;
  s.workload = Workload::kLongFlows;
  s.seed = 31 + gbps;
  s.link_bps = gbps * kGbps;
  s.switch_buffer_bytes = 512 * 1024;
  s.flows = 8;
  s.horizon = Milliseconds(60);
  ScenarioRun run(s);
  const auto delivered = [&run] {
    uint64_t total = 0;
    for (const auto& f : run.long_flows()) {
      total += f->delivered_bytes();
    }
    return total;
  };
  run.Start();
  run.Run();
  const uint64_t before = delivered();
  run.net().scheduler().RunUntil(Milliseconds(160));
  const double rate = static_cast<double>(delivered() - before) * 8.0 / 0.1;
  const double capacity = static_cast<double>(gbps) * 1e9;
  EXPECT_GT(rate, 0.75 * capacity);
  EXPECT_EQ(run.bottleneck()->drops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(LinkRates, TfcLinkSpeedSweep, ::testing::Values(1, 10, 40),
                         ::testing::PrintToStringParamName());

// TFC incast invariants across block sizes.
class TfcIncastBlockSweep : public ::testing::TestWithParam<int> {};

TEST_P(TfcIncastBlockSweep, ZeroLossForAnyBlockSize) {
  const uint64_t block_kb = static_cast<uint64_t>(GetParam());
  Scenario s;
  s.seed = 17;
  s.senders = 40;
  s.incast.block_bytes = block_kb * 1024;
  s.incast.rounds = 4;
  s.horizon = Seconds(10);
  ScenarioRun run(s);
  run.Start();
  run.Run();
  ASSERT_TRUE(run.incast()->finished());
  EXPECT_EQ(run.incast()->total_timeouts(), 0u);
  EXPECT_EQ(run.bottleneck()->drops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Blocks, TfcIncastBlockSweep,
                         ::testing::Values(16, 64, 256, 1024),
                         ::testing::PrintToStringParamName());

// RTT heterogeneity: flows spanning the paper's intra-rack/cross-rack RTT
// spread (Sec. 4.3: at most ~3x in tree topologies) share a TFC bottleneck
// without loss, with throughput inversely biased by RTT (the paper's
// equal-window-per-flow policy).
TEST(TfcHeterogeneousRttTest, EqualWindowsRttBiasNoLoss) {
  Network net(19);
  Switch* sw = net.AddSwitch("sw");
  Host* receiver = net.AddHost("rcv");
  net.Link(sw, receiver, kGbps, Microseconds(10));
  const TimeNs delays[] = {Microseconds(10), Microseconds(15), Microseconds(20),
                           Microseconds(30)};
  std::vector<Host*> senders;
  for (int i = 0; i < 4; ++i) {
    Host* h = net.AddHost("h" + std::to_string(i));
    net.Link(h, sw, kGbps, delays[i]);
    senders.push_back(h);
  }
  net.BuildRoutes();
  InstallTfcSwitches(net);

  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (Host* h : senders) {
    flows.push_back(std::make_unique<PersistentFlow>(
        std::make_unique<TfcSender>(&net, h, receiver, TfcHostConfig())));
    flows.back()->Start();
  }
  net.scheduler().RunUntil(Milliseconds(100));
  std::vector<uint64_t> base;
  for (auto& f : flows) {
    base.push_back(f->delivered_bytes());
  }
  net.scheduler().RunUntil(Milliseconds(400));

  std::vector<double> rates;
  double total = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    rates.push_back(static_cast<double>(flows[i]->delivered_bytes() - base[i]));
    total += rates.back();
  }
  // Link stays highly utilized and lossless despite 8x RTT spread.
  EXPECT_GT(total * 8.0 / 0.3, 0.80e9);
  EXPECT_EQ(Network::FindPort(sw, receiver)->drops(), 0u);
  // Short-RTT flows get at least as much as long-RTT ones (RTT bias).
  EXPECT_GE(rates[0], rates[3]);
}

}  // namespace
}  // namespace tfc
