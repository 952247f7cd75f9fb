// Unit tests for the fault-injection subsystem (src/net/fault.h): stochastic
// wire impairments, targeted filters, link outages and flapping, switch-agent
// state wipes, host crashes, the liveness watchdog, and fault-spec parsing.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"
#include "src/workload/persistent_flow.h"

namespace tfc {
namespace {

// Two hosts on one wire. Synthetic packets addressed to an unregistered flow
// are counted by the receiver's unroutable counter, which doubles as a
// delivery counter here (no endpoint consumes them).
struct WireRig {
  Network net{7};
  Host* a = nullptr;
  Host* b = nullptr;
  Port* wire = nullptr;  // a's NIC: the egress the injector sits on

  WireRig() {
    a = net.AddHost("a");
    b = net.AddHost("b");
    net.Link(a, b, kGbps, Microseconds(5));
    net.BuildRoutes();
    wire = a->nic();
  }

  void SendBurst(int count, int flow_id = 99) {
    for (int i = 0; i < count; ++i) {
      PacketPtr pkt = net.AllocatePacket();
      pkt->flow_id = flow_id;
      pkt->src = a->id();
      pkt->dst = b->id();
      pkt->type = PacketType::kData;
      pkt->payload = 100;
      pkt->seq = static_cast<uint64_t>(i) * 100;
      wire->Enqueue(std::move(pkt));
    }
  }

  uint64_t arrived() const { return b->unroutable_packets(); }

  // Events of `type` in the armed flight ring, which must hold every event
  // the run recorded.
  uint64_t Recorded(FlightEventType type) const {
    EXPECT_EQ(net.flight().size(), net.flight().recorded()) << "the ring wrapped";
    uint64_t n = 0;
    net.flight().ForEach([&](const FlightEvent& e) { n += e.type == type ? 1 : 0; });
    return n;
  }
};

TEST(FaultInjectorTest, NoProfileIsTransparent) {
  WireRig rig;
  FaultInjector inject(&rig.net, 1);
  rig.SendBurst(50);
  rig.net.scheduler().Run();
  EXPECT_EQ(rig.arrived(), 50u);
  EXPECT_EQ(inject.drops(), 0u);
}

TEST(FaultInjectorTest, IidDropLosesRoughlyTheConfiguredFraction) {
  WireRig rig;
  FaultInjector inject(&rig.net, 11);
  FaultProfile profile;
  profile.drop_prob = 0.3;
  inject.Attach(rig.wire, profile);

  rig.SendBurst(2000);
  rig.net.scheduler().Run();

  EXPECT_EQ(rig.arrived() + inject.random_drops(), 2000u);
  // 0.3 +- 5 sigma on n=2000.
  EXPECT_GT(inject.random_drops(), 450u);
  EXPECT_LT(inject.random_drops(), 750u);
  EXPECT_EQ(inject.drops(), inject.random_drops());
}

TEST(FaultInjectorTest, GilbertElliottDropsInBursts) {
  WireRig rig;
  FaultInjector inject(&rig.net, 12);
  FaultProfile profile;
  profile.ge_enter_bad = 0.05;
  profile.ge_exit_bad = 0.25;
  profile.ge_drop_bad = 1.0;  // everything dies while the wire is "bad"
  inject.Attach(rig.wire, profile);

  rig.SendBurst(2000);
  rig.net.scheduler().Run();

  // Stationary bad-state probability = enter/(enter+exit) ~ 0.167.
  EXPECT_GT(inject.burst_drops(), 150u);
  EXPECT_LT(inject.burst_drops(), 550u);
  EXPECT_EQ(rig.arrived() + inject.burst_drops(), 2000u);
  EXPECT_EQ(inject.random_drops(), 0u);
}

TEST(FaultInjectorTest, DuplicationDeliversOriginalAndCopy) {
  WireRig rig;
  FaultInjector inject(&rig.net, 13);
  FaultProfile profile;
  profile.dup_prob = 1.0;
  inject.Attach(rig.wire, profile);

  rig.SendBurst(40);
  rig.net.scheduler().Run();

  EXPECT_EQ(inject.dups(), 40u);
  EXPECT_EQ(rig.arrived(), 80u);
}

TEST(FaultInjectorTest, ReorderDelaysButNeverLoses) {
  WireRig rig;
  FaultInjector inject(&rig.net, 14);
  FaultProfile profile;
  profile.reorder_prob = 1.0;
  profile.reorder_max_delay = Microseconds(50);
  inject.Attach(rig.wire, profile);

  rig.SendBurst(100);
  rig.net.scheduler().Run();

  EXPECT_EQ(inject.reorders(), 100u);
  EXPECT_EQ(rig.arrived(), 100u);
  EXPECT_EQ(inject.drops(), 0u);
}

TEST(FaultInjectorTest, ActiveWindowGatesStochasticFaults) {
  WireRig rig;
  FaultInjector inject(&rig.net, 15);
  FaultProfile profile;
  profile.drop_prob = 1.0;
  profile.active_from = Milliseconds(1);
  profile.active_until = Milliseconds(2);
  inject.Attach(rig.wire, profile);

  rig.SendBurst(10);  // before the window: untouched
  rig.net.scheduler().Run();
  EXPECT_EQ(rig.arrived(), 10u);

  rig.net.scheduler().RunUntil(Milliseconds(1));
  rig.SendBurst(10);  // inside the window: all lost
  rig.net.scheduler().Run();
  EXPECT_EQ(rig.arrived(), 10u);
  EXPECT_EQ(inject.random_drops(), 10u);

  rig.net.scheduler().RunUntil(Milliseconds(3));
  rig.SendBurst(10);  // after the window: untouched again
  rig.net.scheduler().Run();
  EXPECT_EQ(rig.arrived(), 20u);
}

TEST(FaultInjectorTest, FilterKillsOnlyMatchingPackets) {
  WireRig rig;
  FaultInjector inject(&rig.net, 16);
  inject.DropMatching(rig.wire,
                      [](const Packet& pkt) { return pkt.flow_id == 1; });

  rig.SendBurst(20, /*flow_id=*/1);
  rig.SendBurst(20, /*flow_id=*/2);
  rig.net.scheduler().Run();
  EXPECT_EQ(inject.filtered_drops(), 20u);
  EXPECT_EQ(rig.arrived(), 20u);

  inject.ClearFilter(rig.wire);
  rig.SendBurst(20, /*flow_id=*/1);
  rig.net.scheduler().Run();
  EXPECT_EQ(inject.filtered_drops(), 20u);  // unchanged
  EXPECT_EQ(rig.arrived(), 40u);
}

TEST(FaultInjectorTest, StatefulFilterCanDropFirstNMatches) {
  WireRig rig;
  FaultInjector inject(&rig.net, 17);
  inject.DropMatching(rig.wire, [budget = 3](const Packet&) mutable {
    return budget-- > 0;
  });
  rig.SendBurst(10);
  rig.net.scheduler().Run();
  EXPECT_EQ(inject.filtered_drops(), 3u);
  EXPECT_EQ(rig.arrived(), 7u);
}

// A port with no injector hands a frame straight to its delivery when the
// frame starts serializing. An injector attached while that frame is on
// the wire must still see it at the end of its serialization, with or
// without a packet queued behind it: here the link goes down 500 ns into
// the first 1,424 ns frame, and every frame of the burst dies on it.
TEST(FaultInjectorTest, LinkDownMidFrameCatchesTheFrameAlreadyOnTheWire) {
  for (int burst : {1, 2}) {
    WireRig rig;
    FaultInjector inject(&rig.net, 19);
    rig.SendBurst(burst);
    rig.net.scheduler().ScheduleAt(500, [&] { inject.SetLinkDown(rig.wire, true); });
    rig.net.scheduler().Run();
    EXPECT_EQ(rig.arrived(), 0u) << burst;
    EXPECT_EQ(inject.link_drops(), static_cast<uint64_t>(burst)) << burst;
    EXPECT_EQ(rig.wire->tx_packets(), static_cast<uint64_t>(burst)) << burst;
  }
}

TEST(FaultInjectorTest, LinkDownDestroysWirePacketsAndAccumulatesDowntime) {
  WireRig rig;
  FaultInjector inject(&rig.net, 18);

  inject.SetLinkDown(rig.wire, true);
  EXPECT_TRUE(inject.link_down(rig.wire));
  rig.SendBurst(10);
  rig.net.scheduler().Run();
  EXPECT_EQ(rig.arrived(), 0u);
  EXPECT_EQ(inject.link_drops(), 10u);

  rig.net.scheduler().RunUntil(Milliseconds(2));
  inject.SetLinkDown(rig.wire, false);
  EXPECT_FALSE(inject.link_down(rig.wire));
  EXPECT_GE(inject.link_down_ns(), Milliseconds(2) - Microseconds(50));
  EXPECT_EQ(inject.link_transitions(), 2u);

  rig.SendBurst(10);  // healed
  rig.net.scheduler().Run();
  EXPECT_EQ(rig.arrived(), 10u);
}

TEST(FaultInjectorTest, ScheduledOutageHealsAndFlowCompletes) {
  Network net(21);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* sw = net.AddSwitch("sw");
  net.Link(a, sw, kGbps, Microseconds(5));
  net.Link(sw, b, kGbps, Microseconds(5));
  net.BuildRoutes();
  InstallTfcSwitches(net);
  FaultInjector inject(&net, 3);
  // Take the sw->b segment down (both directions) mid-transfer.
  inject.ScheduleLinkDown(Network::FindPort(sw, b), Milliseconds(1), Milliseconds(2));

  TfcSender flow(&net, a, b, TfcHostConfig());
  flow.Write(400 * kMssBytes);
  flow.Close();
  flow.Start();
  net.scheduler().RunUntil(Seconds(5));

  EXPECT_EQ(inject.link_transitions(), 4u);  // two ports x down+up
  EXPECT_GT(inject.link_drops(), 0u);
  EXPECT_EQ(flow.delivered_bytes(), 400u * kMssBytes);
  EXPECT_EQ(flow.state(), ReliableSender::State::kClosed);
}

TEST(FaultInjectorTest, FlappingStopsCleanAndLeavesLinkUp) {
  WireRig rig;
  FaultInjector inject(&rig.net, 19);
  inject.ScheduleFlapping(rig.wire, /*mean_up=*/Microseconds(300),
                          /*mean_down=*/Microseconds(200),
                          /*start=*/Milliseconds(1), /*stop=*/Milliseconds(6));
  rig.net.scheduler().RunUntil(Milliseconds(10));

  EXPECT_FALSE(inject.link_down(rig.wire));   // forced up at stop
  EXPECT_GT(inject.link_transitions(), 2u);   // actually flapped
  EXPECT_GT(inject.link_down_ns(), 0);
  // With these dwell means the link is down ~2/5 of the 5 ms window.
  EXPECT_LT(inject.link_down_ns(), Milliseconds(5));
}

TEST(FaultInjectorTest, AgentWipeDiscardsParkedAcksAndAccountsThem) {
  Network net(3);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* sw = net.AddSwitch("sw");
  net.Link(a, sw, kGbps, Microseconds(5));
  net.Link(sw, b, kGbps, Microseconds(5));
  net.BuildRoutes();
  Port* egress = Network::FindPort(sw, b);
  egress->set_agent(std::make_unique<TfcPortAgent>(sw, egress, TfcSwitchConfig()));
  TfcPortAgent* agent = TfcPortAgent::FromPort(egress);

  // Exhaust the arbiter counter (cap = 2 quanta), then park three grants.
  for (int i = 0; i < 2; ++i) {
    PacketPtr ack = net.AllocatePacket();
    ack->flow_id = 5;
    ack->type = PacketType::kAck;
    ack->rma = true;
    ack->window = 200;
    ASSERT_TRUE(agent->OnReverse(ack));
  }
  for (int i = 0; i < 3; ++i) {
    PacketPtr ack = net.AllocatePacket();
    ack->flow_id = 6 + i;
    ack->type = PacketType::kAck;
    ack->rma = true;
    ack->window = 200;
    ASSERT_FALSE(agent->OnReverse(ack));
  }
  ASSERT_EQ(agent->delay_queue_length(), 3u);

  FaultInjector inject(&net, 4);
  inject.WipeAgentNow(egress);

  EXPECT_EQ(inject.agent_wipes(), 1u);
  EXPECT_EQ(inject.wiped_parked_acks(), 3u);
  EXPECT_EQ(inject.drops(), 3u);
  EXPECT_EQ(agent->delay_queue_length(), 0u);
  EXPECT_EQ(agent->state_wipes(), 1u);
  EXPECT_EQ(agent->delimiter_flow(), -1);
  EXPECT_FALSE(agent->has_window());

  const AuditReport report = net.RunAudit();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(FaultInjectorTest, WipedAgentReconvergesUnderLiveTraffic) {
  Network net(31);
  StarTopology topo = BuildStar(net, 3, LinkOptions(), kGbps, Microseconds(20));
  InstallTfcSwitches(net);
  net.EnableAudit(Microseconds(500));
  FaultInjector inject(&net, 5);

  Port* egress = Network::FindPort(topo.sw, topo.hosts[0]);
  TfcPortAgent* agent = TfcPortAgent::FromPort(egress);

  PersistentFlow f1(std::make_unique<TfcSender>(&net, topo.hosts[1], topo.hosts[0],
                                                TfcHostConfig()));
  PersistentFlow f2(std::make_unique<TfcSender>(&net, topo.hosts[2], topo.hosts[0],
                                                TfcHostConfig()));
  f1.Start();
  f2.Start();
  net.scheduler().RunUntil(Milliseconds(20));
  ASSERT_GT(agent->slots_completed(), 0u);
  const uint64_t slots_before = agent->slots_completed();
  const uint64_t delivered_before = f1.delivered_bytes() + f2.delivered_bytes();

  inject.WipeAgentNow(egress);
  EXPECT_FALSE(agent->has_window());

  net.scheduler().RunUntil(Milliseconds(40));
  // The agent re-elected a delimiter, completed fresh slots, re-measured
  // rtt_b, and traffic kept flowing.
  EXPECT_GE(agent->delimiter_flow(), 0);
  EXPECT_GT(agent->slots_completed(), slots_before);
  EXPECT_TRUE(agent->has_window());
  EXPECT_GT(agent->rtt_b(), 0);
  EXPECT_LE(agent->rtt_b(), Milliseconds(1));
  EXPECT_GT(f1.delivered_bytes() + f2.delivered_bytes(), delivered_before);
}

TEST(FaultInjectorTest, HostOutageDropsTrafficThenTransportRecovers) {
  Network net(41);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* sw = net.AddSwitch("sw");
  net.Link(a, sw, kGbps, Microseconds(5));
  net.Link(sw, b, kGbps, Microseconds(5));
  net.BuildRoutes();
  InstallTfcSwitches(net);
  FaultInjector inject(&net, 6);
  inject.ScheduleHostOutage(b, Milliseconds(1), Milliseconds(2));

  TfcSender flow(&net, a, b, TfcHostConfig());
  flow.Write(300 * kMssBytes);
  flow.Close();
  flow.Start();
  net.scheduler().RunUntil(Seconds(5));

  EXPECT_EQ(inject.host_transitions(), 2u);
  EXPECT_GT(b->down_drops(), 0u);
  EXPECT_EQ(flow.delivered_bytes(), 300u * kMssBytes);
  EXPECT_EQ(flow.state(), ReliableSender::State::kClosed);
}

TEST(FaultInjectorTest, MetricsExportFaultCounters) {
  WireRig rig;
  FaultInjector inject(&rig.net, 20);
  FaultProfile profile;
  profile.drop_prob = 1.0;
  inject.Attach(rig.wire, profile);
  rig.SendBurst(5);
  rig.net.scheduler().Run();

  double value = 0.0;
  ASSERT_TRUE(rig.net.metrics().Read("fault.drops", &value));
  EXPECT_EQ(value, 5.0);
  ASSERT_TRUE(rig.net.metrics().Read("fault.random_drops", &value));
  EXPECT_EQ(value, 5.0);
  ASSERT_TRUE(rig.net.metrics().Read("fault.link_down_ns", &value));
  EXPECT_EQ(value, 0.0);
}

TEST(FaultInjectorTest, FaultDropsEmitTraceEvents) {
  WireRig rig;
  rig.net.flight().Arm(1024);
  FaultInjector inject(&rig.net, 22);
  FaultProfile profile;
  profile.drop_prob = 1.0;
  inject.Attach(rig.wire, profile);
  rig.SendBurst(8);
  rig.net.scheduler().Run();
  EXPECT_EQ(rig.Recorded(FlightEventType::kFaultDrop), 8u);
  EXPECT_EQ(rig.Recorded(FlightEventType::kDeliver), 0u);
}

// --- satellite: the host's own drop paths are observable ---

TEST(HostDropAccountingTest, UnroutablePacketIsCountedTracedAndExported) {
  WireRig rig;
  rig.net.flight().Arm(1024);
  rig.SendBurst(3);  // flow 99 has no registered endpoint at b
  rig.net.scheduler().Run();

  EXPECT_EQ(rig.b->unroutable_packets(), 3u);
  EXPECT_EQ(rig.Recorded(FlightEventType::kDrop), 3u);  // the post-teardown drop is a kDrop event
  EXPECT_EQ(rig.Recorded(FlightEventType::kDeliver), 3u);  // still delivered to the host first
  double value = 0.0;
  ASSERT_TRUE(rig.net.metrics().Read("host.b.unroutable", &value));
  EXPECT_EQ(value, 3.0);
}

TEST(HostDropAccountingTest, DownHostDropsAreFaultDrops) {
  WireRig rig;
  rig.net.flight().Arm(1024);
  rig.b->set_down(true);
  rig.SendBurst(4);
  rig.net.scheduler().Run();

  EXPECT_EQ(rig.b->down_drops(), 4u);
  EXPECT_EQ(rig.b->unroutable_packets(), 0u);
  EXPECT_EQ(rig.Recorded(FlightEventType::kFaultDrop), 4u);
  EXPECT_EQ(rig.Recorded(FlightEventType::kDeliver), 0u);
  double value = 0.0;
  ASSERT_TRUE(rig.net.metrics().Read("host.b.down_drops", &value));
  EXPECT_EQ(value, 4.0);
}

// --- liveness watchdog ---

TEST(LivenessWatchdogTest, FlagsStalledEntryAndNotProgressingOne) {
  Network net(1);
  double moving = 0.0;
  LivenessWatchdog dog(&net.scheduler(), /*check_period=*/Milliseconds(1),
                       /*stall_after=*/Milliseconds(5));
  dog.Watch("stuck", [] { return 1.0; }, [] { return false; });
  dog.Watch("moving", [&moving] { return moving += 1.0; }, [] { return false; });
  dog.Start();

  net.scheduler().RunUntil(Milliseconds(3));
  EXPECT_TRUE(dog.clean());  // not stalled long enough yet

  net.scheduler().RunUntil(Milliseconds(20));
  ASSERT_EQ(dog.flagged().size(), 1u);
  EXPECT_EQ(dog.flagged()[0], "stuck");
  const std::vector<std::string> stalled = dog.Stalled();
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0], "stuck");
}

TEST(LivenessWatchdogTest, DoneEntriesAreNeverFlagged) {
  Network net(1);
  LivenessWatchdog dog(&net.scheduler(), Milliseconds(1), Milliseconds(4));
  dog.Watch("finished", [] { return 42.0; }, [] { return true; });
  dog.Start();
  net.scheduler().RunUntil(Milliseconds(30));
  EXPECT_TRUE(dog.clean());
}

TEST(LivenessWatchdogTest, RecoveredEntryLeavesStalledButStaysOnRecord) {
  Network net(1);
  double value = 0.0;
  LivenessWatchdog dog(&net.scheduler(), Milliseconds(1), Milliseconds(4));
  dog.Watch("wedged", [&value] { return value; }, [] { return false; });
  dog.Start();

  net.scheduler().RunUntil(Milliseconds(10));  // stalls at value=0
  ASSERT_EQ(dog.flagged().size(), 1u);

  value = 7.0;  // progress resumes
  net.scheduler().RunUntil(Milliseconds(12));
  EXPECT_TRUE(dog.Stalled().empty());
  EXPECT_EQ(dog.flagged().size(), 1u);  // the record is sticky
}

TEST(LivenessWatchdogTest, WatchMetricTracksARegistryGauge) {
  Network net(1);
  uint64_t counter = 0;
  MetricRegistry& metrics = net.metrics();
  ScopedMetrics scoped(&metrics);
  scoped.AddCallbackGauge("test.progress",
                          [&counter] { return static_cast<double>(counter); });

  LivenessWatchdog dog(&net.scheduler(), Milliseconds(1), Milliseconds(4));
  dog.WatchMetric(&metrics, "test.progress", [] { return false; });
  dog.Start();
  net.scheduler().RunUntil(Milliseconds(10));
  ASSERT_EQ(dog.flagged().size(), 1u);
  EXPECT_EQ(dog.flagged()[0], "test.progress");
}

TEST(LivenessWatchdogTest, StopHaltsTicking) {
  Network net(1);
  LivenessWatchdog dog(&net.scheduler(), Milliseconds(1), Milliseconds(2));
  dog.Watch("stuck", [] { return 0.0; }, [] { return false; });
  dog.Start();
  net.scheduler().RunUntil(Milliseconds(1));
  dog.Stop();
  const uint64_t ticks = dog.ticks();
  net.scheduler().RunUntil(Milliseconds(30));
  EXPECT_EQ(dog.ticks(), ticks);
  EXPECT_TRUE(dog.clean());  // never reached the stall threshold
}

// --- fault-spec parsing ---

TEST(FaultSpecTest, ParsesFullSpec) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(
      "drop=0.01,dup=0.002,reorder=0.005,reorder_delay=20us,"
      "ge=0.02/0.3/0.5,flap=5ms/500us,wipe=10ms,host_down=4ms+1ms,"
      "start=1ms,stop=50ms,seed=7",
      &spec, &error))
      << error;
  EXPECT_DOUBLE_EQ(spec.profile.drop_prob, 0.01);
  EXPECT_DOUBLE_EQ(spec.profile.dup_prob, 0.002);
  EXPECT_DOUBLE_EQ(spec.profile.reorder_prob, 0.005);
  EXPECT_EQ(spec.profile.reorder_max_delay, Microseconds(20));
  EXPECT_DOUBLE_EQ(spec.profile.ge_enter_bad, 0.02);
  EXPECT_DOUBLE_EQ(spec.profile.ge_exit_bad, 0.3);
  EXPECT_DOUBLE_EQ(spec.profile.ge_drop_bad, 0.5);
  EXPECT_EQ(spec.flap_mean_up, Milliseconds(5));
  EXPECT_EQ(spec.flap_mean_down, Microseconds(500));
  EXPECT_EQ(spec.wipe_period, Milliseconds(10));
  EXPECT_EQ(spec.host_down_at, Milliseconds(4));
  EXPECT_EQ(spec.host_down_for, Milliseconds(1));
  EXPECT_EQ(spec.profile.active_from, Milliseconds(1));
  EXPECT_EQ(spec.profile.active_until, Milliseconds(50));
  EXPECT_EQ(spec.seed, 7u);
}

TEST(FaultSpecTest, BareNumbersAreNanoseconds) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse("wipe=1500", &spec, &error)) << error;
  EXPECT_EQ(spec.wipe_period, 1500);
}

TEST(FaultSpecTest, RejectsMalformedInput) {
  struct Case {
    const char* spec;
    const char* key;  // the error must quote it
  };
  const Case cases[] = {
      {"drop=1.5", "drop"},  // prob > 1
      {"drop=abc", "drop"},
      {"reorder=0.1", "reorder_delay"},  // needs a delay
      {"wipe=10xs", "wipe"},             // bad suffix
      // NaN, infinite and overflowing probabilities.
      {"drop=nan", "drop"},
      {"drop=inf", "drop"},
      {"drop=1e400", "drop"},
      {"dup=nan", "dup"},
      {"dup=-inf", "dup"},
      {"reorder=nan", "reorder"},
      {"reorder=inf", "reorder"},
      {"ge=nan/0.3/0.5", "ge"},
      {"ge=0.02/inf/0.5", "ge"},
      {"ge=0.02/0.3/1e999", "ge"},
      // NaN, infinite and overflowing durations: 2^63 ns is one past int64.
      {"reorder_delay=nan", "reorder_delay"},
      {"reorder_delay=inf", "reorder_delay"},
      {"reorder_delay=9223372036854775808", "reorder_delay"},
      // A delivery's lead must fit an event key: at most Port::kMaxDelay.
      {"reorder=1,reorder_delay=5s", "reorder_delay"},
      {"reorder_delay=2000000001", "reorder_delay"},
      {"flap=nan/1ms", "flap"},
      {"flap=1ms/infus", "flap"},
      {"flap=1e300s/1ms", "flap"},
      {"wipe=nan", "wipe"},
      {"wipe=inf", "wipe"},
      {"wipe=1e10s", "wipe"},
      {"host_down=nanms+1ms", "host_down"},
      {"host_down=1ms+inf", "host_down"},
      {"host_down=1ms+1e17ms", "host_down"},
      {"start=nan", "start"},
      {"start=inf", "start"},
      {"start=9.3e18", "start"},
      {"stop=nans", "stop"},
      {"stop=1e300s", "stop"},
      {"seed=18446744073709551616", "seed"},
      {"seed=-1", "seed"},
      // Empty values and trailing garbage.
      {"drop=", "drop"},
      {"wipe=", "wipe"},
      {"seed=", "seed"},
      {"ge=//", "ge"},
      {"drop=0.1x", "drop"},
      {"wipe=10ms ", "wipe"},
      {"wipe=10 ms", "wipe"},
      {"stop=5msms", "stop"},
      {"seed=7x", "seed"},
      // The wrong number of '/' or '+' parts.
      {"ge=0.1/0.2", "ge"},
      {"ge=0.1/0.2/0.3/0.4", "ge"},
      {"flap=5ms", "flap"},
      {"flap=5ms/1ms/1ms", "flap"},
      {"host_down=4ms", "host_down"},
      {"host_down=4ms+1ms+1ms", "host_down"},
      // An unknown key, and a missing '='.
      {"bogus=1", "bogus"},
      {"drop=0.1,drop", "drop"},
  };
  for (const Case& c : cases) {
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(FaultSpec::Parse(c.spec, &spec, &error)) << c.spec;
    EXPECT_NE(error.find(std::string("'") + c.key + "'"), std::string::npos)
        << c.spec << " -> " << error;
  }
}

TEST(FaultSpecTest, MutatedValidSpecsParseOrFail) {
  // Random edits of valid specs: every input either parses into a spec
  // with probabilities in [0, 1] and non-negative durations, or fails with
  // an error. Under the asan-ubsan preset this also proves no input
  // reaches an undefined double -> int64 cast.
  const std::string valid[] = {
      "drop=0.01,dup=0.002,reorder=0.005,reorder_delay=20us,ge=0.02/0.3/0.5",
      "flap=5ms/500us,wipe=10ms,host_down=4ms+1ms,start=1ms,stop=50ms,seed=7",
      "wipe=1500,seed=18446744073709551615",
  };
  const std::string tokens[] = {"nan", "inf", "1e300", "-", "9223372036854775808",
                                "e", ",", "=", "/", "+", "s", "ms", "us", ""};
  Rng rng(15);
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  size_t parsed = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string s = valid[pick(std::size(valid))];
    for (int edits = 1 + static_cast<int>(pick(3)); edits > 0; --edits) {
      const size_t pos = pick(s.size() + 1);
      switch (pick(3)) {
        case 0:  // insert a token
          s.insert(pos, tokens[pick(std::size(tokens))]);
          break;
        case 1:  // delete a byte
          if (pos < s.size()) {
            s.erase(pos, 1);
          }
          break;
        default:  // overwrite a byte with a digit
          if (pos < s.size()) {
            s[pos] = static_cast<char>('0' + pick(10));
          }
          break;
      }
    }
    FaultSpec spec;
    std::string error;
    if (!FaultSpec::Parse(s, &spec, &error)) {
      EXPECT_FALSE(error.empty()) << s;
      continue;
    }
    ++parsed;
    const FaultProfile& p = spec.profile;
    for (double prob : {p.drop_prob, p.dup_prob, p.reorder_prob, p.ge_enter_bad,
                        p.ge_exit_bad, p.ge_drop_bad}) {
      EXPECT_TRUE(prob >= 0.0 && prob <= 1.0) << s;
    }
    for (TimeNs t : {p.reorder_max_delay, p.active_from, p.active_until, spec.flap_mean_up,
                     spec.flap_mean_down, spec.wipe_period, spec.host_down_at,
                     spec.host_down_for}) {
      EXPECT_GE(t, 0) << s;
    }
  }
  // The loop exercises both outcomes.
  EXPECT_GT(parsed, 1000u);
  EXPECT_LT(parsed, 19000u);
}

TEST(FaultSpecTest, AppliedSpecDisruptsButFlowsComplete) {
  Network net(51);
  TestbedTopology topo = BuildTestbed(net);
  InstallTfcSwitches(net);
  net.EnableAudit(Milliseconds(1));
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse("drop=0.01,start=1ms,stop=20ms,wipe=8ms", &spec, &error))
      << error;
  FaultInjector inject(&net, spec.seed);
  inject.ApplySpec(spec);

  // Cross-rack flows: H1->H4 and H5->H2 traverse the NF0 trunks.
  std::vector<std::unique_ptr<TfcSender>> flows;
  flows.push_back(std::make_unique<TfcSender>(&net, topo.hosts[0], topo.hosts[3],
                                              TfcHostConfig()));
  flows.push_back(std::make_unique<TfcSender>(&net, topo.hosts[4], topo.hosts[1],
                                              TfcHostConfig()));
  for (auto& f : flows) {
    f->Write(100 * kMssBytes);
    f->Close();
    f->Start();
  }
  net.scheduler().RunUntil(Seconds(10));

  EXPECT_GT(inject.drops() + inject.agent_wipes(), 0u);
  for (auto& f : flows) {
    EXPECT_EQ(f->delivered_bytes(), 100u * kMssBytes);
    EXPECT_EQ(f->state(), ReliableSender::State::kClosed);
  }
}

}  // namespace
}  // namespace tfc
