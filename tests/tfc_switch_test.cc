// Unit tests for the TFC switch port agent, driving it with synthetic
// packets: slot machinery, effective-flow counting, token adjustment,
// window stamping, delimiter failover, and the delay arbiter.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"
#include "src/workload/persistent_flow.h"
#include "src/workload/scenario.h"

namespace tfc {
namespace {

// Minimal fixture: a <- sw -> b, TFC agent on the sw->b (data egress) port.
class TfcPortFixture : public ::testing::Test {
 protected:
  void SetUp() override { Build(TfcSwitchConfig()); }

  void Build(const TfcSwitchConfig& config, BitsPerSec bps = kGbps) {
    net_ = std::make_unique<Network>(3);
    a_ = net_->AddHost("a");
    b_ = net_->AddHost("b");
    sw_ = net_->AddSwitch("sw");
    net_->Link(a_, sw_, bps, Microseconds(5));
    net_->Link(sw_, b_, bps, Microseconds(5));
    net_->BuildRoutes();
    egress_ = Network::FindPort(sw_, b_);
    egress_->set_agent(std::make_unique<TfcPortAgent>(sw_, egress_, config));
    agent_ = TfcPortAgent::FromPort(egress_);
  }

  Packet MakeData(int flow, uint32_t payload, bool rm) {
    Packet pkt;
    pkt.flow_id = flow;
    pkt.src = a_->id();
    pkt.dst = b_->id();
    pkt.type = PacketType::kData;
    pkt.payload = payload;
    pkt.rm = rm;
    return pkt;
  }

  PacketPtr MakeRmaAck(int flow, uint32_t window) {
    PacketPtr pkt = net_->AllocatePacket();
    pkt->flow_id = flow;
    pkt->src = b_->id();
    pkt->dst = a_->id();
    pkt->type = PacketType::kAck;
    pkt->rma = true;
    pkt->window = window;
    return pkt;
  }

  void Advance(TimeNs dt) { net_->scheduler().RunUntil(net_->scheduler().now() + dt); }

  std::unique_ptr<Network> net_;
  Host* a_ = nullptr;
  Host* b_ = nullptr;
  Switch* sw_ = nullptr;
  Port* egress_ = nullptr;
  TfcPortAgent* agent_ = nullptr;
};

TEST_F(TfcPortFixture, InitialTokenIsOneInitialBdp) {
  // c * initial_rttb = 1 Gbps * 160 us = 20 KB.
  EXPECT_NEAR(agent_->token_bytes(), 20'000.0, 1.0);
  EXPECT_EQ(agent_->rtt_b(), Microseconds(160));
  EXPECT_FALSE(agent_->has_window());
}

TEST_F(TfcPortFixture, FirstRmPacketBecomesDelimiter) {
  Packet p = MakeData(7, kMssBytes, /*rm=*/true);
  agent_->OnEgress(p);
  EXPECT_EQ(agent_->delimiter_flow(), 7);
  EXPECT_EQ(agent_->slots_completed(), 0u);
}

TEST_F(TfcPortFixture, SlotEndsOnSecondDelimiterMarkAndComputesWindow) {
  Packet p1 = MakeData(7, kMssBytes, true);
  agent_->OnEgress(p1);
  Advance(Microseconds(100));
  Packet p2 = MakeData(7, kMssBytes, true);
  agent_->OnEgress(p2);

  EXPECT_EQ(agent_->slots_completed(), 1u);
  EXPECT_TRUE(agent_->has_window());
  EXPECT_EQ(agent_->rtt_m(), Microseconds(100));
  // E was 1 (only the delimiter) so W == T.
  EXPECT_DOUBLE_EQ(agent_->window_bytes(), agent_->token_bytes());
  EXPECT_EQ(agent_->last_effective_flows(), 1);
}

TEST_F(TfcPortFixture, EffectiveFlowsCountRoundMarksPerSlot) {
  Packet d = MakeData(1, kMssBytes, true);
  agent_->OnEgress(d);
  // Three other flows mark once each; unmarked packets don't count.
  for (int flow = 2; flow <= 4; ++flow) {
    Packet p = MakeData(flow, kMssBytes, true);
    agent_->OnEgress(p);
    Packet q = MakeData(flow, kMssBytes, false);
    agent_->OnEgress(q);
  }
  Advance(Microseconds(100));
  Packet end = MakeData(1, kMssBytes, true);
  agent_->OnEgress(end);

  EXPECT_EQ(agent_->last_effective_flows(), 4);
  EXPECT_NEAR(agent_->window_bytes(), agent_->token_bytes() / 4.0, 1.0);
}

TEST_F(TfcPortFixture, RttbOnlyLearnsFromFullSizeFrames) {
  Packet p1 = MakeData(7, 0, true);  // small probe starts the slot
  agent_->OnEgress(p1);
  Advance(Microseconds(50));
  Packet p2 = MakeData(7, 0, true);  // small probe ends it: no rttb update
  agent_->OnEgress(p2);
  EXPECT_EQ(agent_->rtt_b(), Microseconds(160));

  Advance(Microseconds(80));
  Packet p3 = MakeData(7, kMssBytes, true);  // full frame: rttb learns 80 us
  agent_->OnEgress(p3);
  EXPECT_EQ(agent_->rtt_b(), Microseconds(80));

  Advance(Microseconds(200));
  Packet p4 = MakeData(7, kMssBytes, true);  // larger sample: min keeps 80 us
  agent_->OnEgress(p4);
  EXPECT_EQ(agent_->rtt_b(), Microseconds(80));
}

TEST_F(TfcPortFixture, StampsConservativeWindowBeforeFirstSlot) {
  Packet p = MakeData(9, kMssBytes, false);
  agent_->OnEgress(p);
  // Just under one frame until the port learns: below the arbiter quantum,
  // so bootstrap grants are paced rather than released all at once.
  EXPECT_EQ(p.window, kMtuFrameBytes - 1);
}

TEST_F(TfcPortFixture, StampsMinimumOfCarriedAndComputedWindow) {
  // Complete a slot to get a window.
  Packet p1 = MakeData(7, kMssBytes, true);
  agent_->OnEgress(p1);
  Advance(Microseconds(100));
  Packet p2 = MakeData(7, kMssBytes, true);
  agent_->OnEgress(p2);
  const uint32_t w = static_cast<uint32_t>(agent_->window_bytes());

  Packet fresh = MakeData(8, kMssBytes, false);
  agent_->OnEgress(fresh);
  EXPECT_EQ(fresh.window, w);

  Packet tighter = MakeData(8, kMssBytes, false);
  tighter.window = w / 2;  // an upstream switch allocated less
  agent_->OnEgress(tighter);
  EXPECT_EQ(tighter.window, w / 2);
}

TEST_F(TfcPortFixture, TokenBoostsWhenLinkUnderutilized) {
  // Slot with almost no traffic: rho tiny => target boosted, EWMA moves T up.
  Packet p1 = MakeData(7, kMssBytes, true);
  agent_->OnEgress(p1);
  const double t0 = agent_->token_bytes();
  Advance(Microseconds(500));
  Packet p2 = MakeData(7, kMssBytes, true);
  agent_->OnEgress(p2);
  EXPECT_GT(agent_->token_bytes(), t0);
}

TEST_F(TfcPortFixture, TokenStaysBoundedUnderRepeatedIdleSlots) {
  Packet first = MakeData(7, kMssBytes, true);
  agent_->OnEgress(first);
  for (int i = 0; i < 50; ++i) {
    Advance(Microseconds(200));
    Packet p = MakeData(7, kMssBytes, true);
    agent_->OnEgress(p);
  }
  // Cap: token_boost_cap (4) * c * rtt_b. rtt_b has converged to 200 us.
  const double bdp = 1e9 / 8.0 * 200e-6;
  EXPECT_LE(agent_->token_bytes(), 4.0 * bdp + 1.0);
  EXPECT_GT(agent_->token_bytes(), 0.0);
}

TEST_F(TfcPortFixture, DelimiterFinTriggersReelection) {
  Packet p1 = MakeData(7, kMssBytes, true);
  agent_->OnEgress(p1);
  Packet fin = MakeData(7, 0, false);
  fin.type = PacketType::kFin;
  agent_->OnEgress(fin);

  // The next RM packet (from another flow) becomes the delimiter.
  Packet p2 = MakeData(8, kMssBytes, true);
  agent_->OnEgress(p2);
  EXPECT_EQ(agent_->delimiter_flow(), 8);
}

TEST_F(TfcPortFixture, SilentDelimiterIsReplacedAfterBackoff) {
  Packet p1 = MakeData(7, kMssBytes, true);
  agent_->OnEgress(p1);
  Advance(Microseconds(100));
  Packet p2 = MakeData(7, kMssBytes, true);
  agent_->OnEgress(p2);
  ASSERT_EQ(agent_->delimiter_flow(), 7);

  // Flow 7 goes silent; flow 8 keeps marking. After 2*rtt_last of silence
  // the failover fires and flow 8's next mark is adopted.
  for (int i = 0; i < 10; ++i) {
    Advance(Microseconds(100));
    Packet p = MakeData(8, kMssBytes, true);
    agent_->OnEgress(p);
    if (agent_->delimiter_flow() == 8) {
      break;
    }
  }
  EXPECT_EQ(agent_->delimiter_flow(), 8);
}

TEST_F(TfcPortFixture, MissExponentSurvivesAdoptionUntilSuccessfulSlot) {
  // Regression test: when the true round interval exceeds 2^k * rtt_last,
  // each adopted delimiter is deposed before completing a slot. The backoff
  // must keep growing across adoptions so a slot eventually completes.
  Packet p1 = MakeData(1, kMssBytes, true);
  agent_->OnEgress(p1);
  Advance(Microseconds(50));
  Packet p2 = MakeData(1, kMssBytes, true);
  agent_->OnEgress(p2);  // slot completes; rtt_last = 50 us
  ASSERT_EQ(agent_->slots_completed(), 1u);

  // Now every flow marks only every 700 us (>> 2 * 50 us). Round-robin the
  // marking flow so re-elections keep landing on "fresh" flows.
  uint64_t slots_before = agent_->slots_completed();
  for (int i = 0; i < 40; ++i) {
    Advance(Microseconds(700));
    Packet p = MakeData(2 + (i % 3), kMssBytes, true);
    agent_->OnEgress(p);
  }
  EXPECT_GT(agent_->slots_completed(), slots_before);
}

// --- delay arbiter ---

TEST_F(TfcPortFixture, FullWindowRmaPassesImmediately) {
  PacketPtr ack = MakeRmaAck(5, 3 * kMtuFrameBytes);
  Packet* raw = ack.get();
  EXPECT_TRUE(agent_->OnReverse(ack));
  EXPECT_EQ(raw->window, 3 * kMtuFrameBytes);  // untouched
  EXPECT_EQ(agent_->delayed_acks(), 0u);
}

TEST_F(TfcPortFixture, SubMssRmaUpgradedWhenCounterAffords) {
  PacketPtr ack = MakeRmaAck(5, 200);
  Packet* raw = ack.get();
  EXPECT_TRUE(agent_->OnReverse(ack));  // counter starts at its cap
  EXPECT_EQ(raw->window, kMtuFrameBytes);
}

TEST_F(TfcPortFixture, SubMssRmaParkedWhenCounterExhausted) {
  // Drain the counter with two immediate upgrades (cap = 2 quanta)...
  for (int i = 0; i < 2; ++i) {
    PacketPtr ack = MakeRmaAck(5, 200);
    ASSERT_TRUE(agent_->OnReverse(ack));
  }
  // ...so the third is parked.
  PacketPtr ack = MakeRmaAck(6, 200);
  EXPECT_FALSE(agent_->OnReverse(ack));
  EXPECT_EQ(agent_->delayed_acks(), 1u);
  EXPECT_EQ(agent_->delay_queue_length(), 1u);

  // After ~quantum/(rho0*c) the parked ACK is released toward the sender
  // upgraded to one MSS.
  net_->scheduler().Run();
  EXPECT_EQ(agent_->delay_queue_length(), 0u);
}

TEST_F(TfcPortFixture, ParkedAcksReleaseAtTargetRate) {
  // Park a burst of 20 sub-MSS RMAs and measure the drain time: it must be
  // about quantum / (rho0 * c) per ACK.
  int forwarded = 0;
  std::vector<PacketPtr> parked;
  for (int i = 0; i < 22; ++i) {
    PacketPtr ack = MakeRmaAck(100 + i, 200);
    if (agent_->OnReverse(ack)) {
      ++forwarded;  // the first two consume the counter cap
    }
  }
  EXPECT_EQ(forwarded, 2);
  EXPECT_EQ(agent_->delay_queue_length(), 20u);

  const TimeNs start = net_->scheduler().now();
  net_->scheduler().Run();
  const double elapsed_us = ToMicroseconds(net_->scheduler().now() - start);
  // 20 quanta at rho0*c(wire-adjusted) ~= 20 * 12.69 us ~= 254 us.
  EXPECT_GT(elapsed_us, 200.0);
  EXPECT_LT(elapsed_us, 320.0);
}

// The release timer sleeps until the least whole ns whose refill (rho0 * c,
// wire-adjusted) covers the counter's deficit, so its one pass releases the
// parked ACK. At each target utilization, line rate and deficit (1 B to more
// than one quantum), the ACK is still parked, with no pass made, one ns
// before that instant, and has left after exactly one pass at it.
TEST_F(TfcPortFixture, ReleaseWakesAtTheFirstNanosecondTheCounterAffords) {
  for (double rho0 : {0.9, 0.95, 1.0}) {
    for (uint64_t gbps : {1, 10, 40}) {
      for (uint32_t deficit : {1u, 2u, 97u, 759u, 1517u, 1518u, 1519u, 3000u}) {
        SCOPED_TRACE(testing::Message() << "rho0=" << rho0 << " gbps=" << gbps
                                        << " deficit=" << deficit);
        TfcSwitchConfig config;
        config.rho0 = rho0;
        Build(config, gbps * kGbps);
        const ProfileSite* passes = net_->profiler().Site("tfc.release_parked");
        // The counter starts at its cap; a full window debits it to one
        // quantum less the deficit, and the next sub-MSS grant parks.
        const uint32_t quantum = config.delay_quantum.ToU32Saturating();
        const auto cap = static_cast<uint32_t>(kCounterCapQuanta * quantum);
        PacketPtr full = MakeRmaAck(5, cap - quantum + deficit);
        ASSERT_TRUE(agent_->OnReverse(full));
        PacketPtr ack = MakeRmaAck(6, 200);
        ASSERT_FALSE(agent_->OnReverse(ack));

        // The refill over n ns, in the agent's arithmetic.
        const double wire_share = static_cast<double>(quantum) /
                                  static_cast<double>(quantum + kWireOverheadBytes);
        const auto refill = [&](int64_t n) {
          return rho0 * (gbps * kGbps).bytes_per_ns() * static_cast<double>(n) * wire_share;
        };
        int64_t wait = 1;
        while (refill(wait) < deficit) {
          ++wait;
        }
        net_->scheduler().RunUntil(TimeNs(wait - 1));
        EXPECT_EQ(agent_->delay_queue_length(), 1u);
        EXPECT_EQ(passes->hits(), 0u);
        net_->scheduler().RunUntil(TimeNs(wait));
        EXPECT_EQ(agent_->delay_queue_length(), 0u);
        EXPECT_EQ(passes->hits(), 1u);
      }
    }
  }
}

// tfcsim's testbed incast (8 senders, 64 KB blocks, 5 rounds): nearly every
// release pass releases a parked ACK, so passes exceed parked ACKs by at
// most 5%.
TEST(TfcArbiterTest, ReleasePassesTrackParkedAcksOnTestbedIncast) {
  Scenario s;
  s.topology = Topology::kTestbed;
  s.suite.protocol = Protocol::kTfc;
  s.senders = 8;
  s.incast.block_bytes = 64 * 1024;
  s.incast.rounds = 5;
  ScenarioRun run(s);
  run.Start();
  run.Run();
  ASSERT_EQ(run.incast()->rounds_completed(), 5);

  uint64_t parked = 0;
  for (const auto& node : run.net().nodes()) {
    for (const auto& port : node->ports()) {
      if (const TfcPortAgent* agent = TfcPortAgent::FromPort(port.get())) {
        parked += agent->delayed_acks();
      }
    }
  }
  const uint64_t passes = run.net().profiler().Site("tfc.release_parked")->hits();
  ASSERT_GT(parked, 100u);
  EXPECT_LE(static_cast<double>(passes), 1.05 * static_cast<double>(parked))
      << passes << " release passes for " << parked << " parked ACKs";
}

TEST_F(TfcPortFixture, NonRmaTrafficIgnoredByArbiter) {
  PacketPtr data = net_->AllocatePacket();
  data->flow_id = 1;
  data->src = b_->id();
  data->dst = a_->id();
  data->type = PacketType::kData;
  data->payload = 100;
  EXPECT_TRUE(agent_->OnReverse(data));

  auto plain = MakeRmaAck(1, 200);
  plain->rma = false;
  EXPECT_TRUE(agent_->OnReverse(plain));
}

TEST_F(TfcPortFixture, ArbiterFailsOpenAtQueueLimit) {
  TfcSwitchConfig config;
  config.delay_queue_limit = 4;
  Build(config);
  int parked = 0;
  int passed = 0;
  for (int i = 0; i < 20; ++i) {
    PacketPtr ack = MakeRmaAck(i, 200);
    Packet* raw = ack.get();
    if (agent_->OnReverse(ack)) {
      ++passed;
      EXPECT_EQ(raw->window, kMtuFrameBytes);
    } else {
      ++parked;
    }
  }
  EXPECT_EQ(parked, 4);
  EXPECT_EQ(passed, 16);
  net_->scheduler().Run();  // parked ones still drain
  EXPECT_EQ(agent_->delay_queue_length(), 0u);
}

TEST_F(TfcPortFixture, DelayFunctionCanBeDisabled) {
  TfcSwitchConfig config;
  config.enable_delay_function = false;
  Build(config);
  for (int i = 0; i < 10; ++i) {
    PacketPtr ack = MakeRmaAck(i, 200);
    Packet* raw = ack.get();
    EXPECT_TRUE(agent_->OnReverse(ack));
    EXPECT_EQ(raw->window, 200u);  // untouched
  }
  EXPECT_EQ(agent_->delayed_acks(), 0u);
}

// --- resilience: FIN purge, age expiry, forced delimiter loss ---

TEST_F(TfcPortFixture, FinPurgesThatFlowsParkedAcksOnly) {
  // Exhaust the counter, then park grants for flows 6 and 7.
  for (int i = 0; i < 2; ++i) {
    PacketPtr ack = MakeRmaAck(5, 200);
    ASSERT_TRUE(agent_->OnReverse(ack));
  }
  PacketPtr a6 = MakeRmaAck(6, 200);
  PacketPtr a7 = MakeRmaAck(7, 200);
  ASSERT_FALSE(agent_->OnReverse(a6));
  ASSERT_FALSE(agent_->OnReverse(a7));
  ASSERT_EQ(agent_->delay_queue_length(), 2u);

  // Flow 6 FINs on the data path: its parked grant is destroyed, flow 7's
  // survives and is still released later.
  Packet fin = MakeData(6, 0, false);
  fin.type = PacketType::kFin;
  agent_->OnEgress(fin);
  EXPECT_EQ(agent_->arbiter_expired(), 1u);
  EXPECT_EQ(agent_->delay_queue_length(), 1u);

  net_->scheduler().Run();
  EXPECT_EQ(agent_->delay_queue_length(), 0u);
  EXPECT_EQ(agent_->arbiter_expired(), 1u);  // flow 7's was released, not expired
}

TEST_F(TfcPortFixture, AgedParkedAckExpiresInsteadOfWaitingOutDeepDebt) {
  TfcSwitchConfig config;
  config.delay_park_timeout = Microseconds(100);
  Build(config);
  // Drain the cap, then sink the counter far below zero with a full-window
  // grant, so the next refill to one quantum takes ~670 us — far past the
  // 100 us park timeout.
  for (int i = 0; i < 2; ++i) {
    PacketPtr ack = MakeRmaAck(5, 200);
    ASSERT_TRUE(agent_->OnReverse(ack));
  }
  PacketPtr big = MakeRmaAck(5, 100'000);
  ASSERT_TRUE(agent_->OnReverse(big));

  net_->flight().Arm(1024);
  PacketPtr parked = MakeRmaAck(6, 200);
  ASSERT_FALSE(agent_->OnReverse(parked));

  const TimeNs start = net_->scheduler().now();
  net_->scheduler().Run();
  // The release timer fired at the park timeout (not the full refill wait)
  // and expired the aged grant instead of releasing it.
  EXPECT_EQ(agent_->arbiter_expired(), 1u);
  EXPECT_EQ(agent_->delay_queue_length(), 0u);
  uint64_t drops = 0;
  net_->flight().ForEach(
      [&](const FlightEvent& e) { drops += e.type == FlightEventType::kDrop ? 1 : 0; });
  EXPECT_EQ(net_->flight().size(), net_->flight().recorded()) << "the ring wrapped";
  EXPECT_EQ(drops, 1u);
  EXPECT_LT(net_->scheduler().now() - start, Microseconds(300));

  double value = 0.0;
  ASSERT_TRUE(net_->metrics().Read("tfc.sw.p1.arbiter_expired", &value));
  EXPECT_EQ(value, 1.0);
}

// Parked grants always age out: an agent is not built with a park timeout
// of zero or less.
TEST(TfcPortDeathTest, NonPositiveParkTimeoutIsRejected) {
  for (TimeNs timeout : {TimeNs(0), -Microseconds(1)}) {
    Network net(3);
    Host* a = net.AddHost("a");
    Switch* sw = net.AddSwitch("sw");
    net.Link(a, sw, kGbps, Microseconds(5));
    TfcSwitchConfig config;
    config.delay_park_timeout = timeout;
    EXPECT_DEATH(InstallTfcSwitches(net, config), "delay_park_timeout=");
  }
}

TEST(TfcDelimiterFailoverTest,ForcedRmLossFailsOverWithinBackoffBound) {
  // End to end: two flows share an egress; the delimiter's RM packets are
  // then force-dropped on its sender's wire. The agent must depose the
  // silent delimiter within the 2^k * rtt_last backoff and adopt the
  // surviving flow, with rtt_b staying sane across the handover.
  Network net(9);
  StarTopology topo = BuildStar(net, 3, LinkOptions(), kGbps, Microseconds(20));
  InstallTfcSwitches(net);
  Port* egress = Network::FindPort(topo.sw, topo.hosts[0]);
  TfcPortAgent* agent = TfcPortAgent::FromPort(egress);

  PersistentFlow f1(std::make_unique<TfcSender>(&net, topo.hosts[1], topo.hosts[0],
                                                TfcHostConfig()));
  PersistentFlow f2(std::make_unique<TfcSender>(&net, topo.hosts[2], topo.hosts[0],
                                                TfcHostConfig()));
  f1.Start();
  f2.Start();
  net.scheduler().RunUntil(Milliseconds(30));
  const int delim = agent->delimiter_flow();
  ASSERT_GE(delim, 0);
  ASSERT_GT(agent->slots_completed(), 0u);
  const uint64_t failovers_before = agent->delimiter_failovers();
  const TimeNs rtt_last = agent->rtt_m();
  ASSERT_GT(rtt_last, 0);

  // Kill every further RM of the delimiter flow on its sender's NIC.
  FaultInjector inject(&net, 4);
  Host* delim_host =
      f1.sender().flow_id() == delim ? topo.hosts[1] : topo.hosts[2];
  ASSERT_TRUE(f1.sender().flow_id() == delim || f2.sender().flow_id() == delim);
  inject.DropMatching(delim_host->nic(), [delim](const Packet& pkt) {
    return pkt.rm && pkt.flow_id == delim;
  });

  const TimeNs loss_start = net.scheduler().now();
  TimeNs elapsed = 0;
  while (agent->delimiter_flow() == delim && elapsed < Milliseconds(50)) {
    net.scheduler().RunUntil(net.scheduler().now() + Microseconds(50));
    elapsed = net.scheduler().now() - loss_start;
  }

  EXPECT_NE(agent->delimiter_flow(), delim);
  EXPECT_GT(agent->delimiter_failovers(), failovers_before);
  // Re-election bound: first failover fires after 2*rtt_last of silence and
  // adoption needs one further RM arrival; 2^3 * rtt_last covers both with
  // the backoff's next doubling to spare.
  EXPECT_LE(elapsed, 8 * rtt_last);
  // rtt_b stays sane across the handover (re-seeded from rtt_last, then
  // min-corrected): positive and no larger than the pre-loss slot length.
  EXPECT_GT(agent->rtt_b(), 0);
  EXPECT_LE(agent->rtt_b(), rtt_last);

  net.scheduler().RunUntil(net.scheduler().now() + Milliseconds(10));
  EXPECT_GT(agent->slots_completed(), 0u);  // new delimiter completes slots
  const AuditReport report = net.RunAudit();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(TfcPortFixture, InstallAttachesAgentsToAllSwitchPorts) {
  Network net(1);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* s1 = net.AddSwitch("s1");
  Switch* s2 = net.AddSwitch("s2");
  net.Link(a, s1, kGbps, 0);
  net.Link(s1, s2, kGbps, 0);
  net.Link(s2, b, kGbps, 0);
  net.BuildRoutes();
  EXPECT_EQ(InstallTfcSwitches(net), 4);
  EXPECT_NE(TfcPortAgent::FromPort(Network::FindPort(s1, s2)), nullptr);
  EXPECT_NE(TfcPortAgent::FromPort(Network::FindPort(s2, b)), nullptr);
  EXPECT_EQ(a->nic()->agent(), nullptr);  // hosts get none
}

}  // namespace
}  // namespace tfc
