// Unit tests for the network substrate: links, queues, ECN, routing, hosts.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/topo/topologies.h"

namespace tfc {
namespace {

PacketPtr MakeData(Network& net, int flow, int src, int dst, uint32_t payload) {
  PacketPtr pkt = net.AllocatePacket();
  pkt->flow_id = flow;
  pkt->src = src;
  pkt->dst = dst;
  pkt->type = PacketType::kData;
  pkt->payload = payload;
  return pkt;
}

// Endpoint that records delivery times of all packets it receives.
class SinkEndpoint : public Endpoint {
 public:
  explicit SinkEndpoint(Scheduler* sched) : sched_(sched) {}
  void OnReceive(PacketPtr pkt) override {
    arrival_times.push_back(sched_->now());
    packets.push_back(std::move(pkt));
  }
  std::vector<TimeNs> arrival_times;
  std::vector<PacketPtr> packets;

 private:
  Scheduler* sched_;
};

TEST(PacketTest, SizeAccounting) {
  Packet p;
  p.payload = kMssBytes;
  EXPECT_EQ(p.frame_bytes(), 1518u);
  EXPECT_EQ(p.wire_bytes(), 1538u);
  Packet ack;
  ack.payload = 0;
  EXPECT_EQ(ack.frame_bytes(), kHeaderBytes);
  EXPECT_EQ(ack.wire_bytes(), kMinFrameBytes + kWireOverheadBytes);
}

TEST(LinkTest, SerializationPlusPropagationDelay) {
  Network net;
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  net.Link(a, b, kGbps, Microseconds(5));
  net.BuildRoutes();

  SinkEndpoint sink(&net.scheduler());
  b->RegisterEndpoint(1, &sink);

  a->Send(MakeData(net, 1, a->id(), b->id(), kMssBytes));
  net.scheduler().Run();

  // 1538 wire bytes at 1 Gbps = 12304 ns serialization + 5000 ns propagation.
  ASSERT_EQ(sink.arrival_times.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], 12304 + 5000);
}

TEST(LinkTest, BackToBackPacketsSerializeSequentially) {
  Network net;
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  net.Link(a, b, kGbps, Microseconds(5));
  net.BuildRoutes();

  SinkEndpoint sink(&net.scheduler());
  b->RegisterEndpoint(1, &sink);

  for (int i = 0; i < 3; ++i) {
    a->Send(MakeData(net, 1, a->id(), b->id(), kMssBytes));
  }
  net.scheduler().Run();

  ASSERT_EQ(sink.arrival_times.size(), 3u);
  EXPECT_EQ(sink.arrival_times[0], 12304 + 5000);
  EXPECT_EQ(sink.arrival_times[1], 2 * 12304 + 5000);
  EXPECT_EQ(sink.arrival_times[2], 3 * 12304 + 5000);
}

TEST(LinkTest, TenGigIsTenTimesFaster) {
  Network net;
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Port* pa = net.Link(a, b, 10 * kGbps, 0);
  net.BuildRoutes();
  EXPECT_EQ(pa->SerializationTime(1538), 1230);  // 12304 / 10, truncated
}

TEST(LinkTest, SerializationTimeMatchesExactDivisionAtEveryRate) {
  // The port's 64-bit arithmetic must truncate exactly like the 128-bit
  // Bytes / BitsPerSec, also at a prime rate and on both sides of 2^31 B,
  // where frames switch to the 128-bit division.
  const BitsPerSec rates[] = {kGbps, 10 * kGbps, 25 * kGbps, 40 * kGbps, 100 * kGbps,
                              BitsPerSec(1'000'000'007ull)};
  for (const BitsPerSec bps : rates) {
    Network net;
    Port* p = net.Link(net.AddHost("a"), net.AddHost("b"), bps, 0);
    for (int wire = 84; wire <= 9100; ++wire) {
      ASSERT_EQ(p->SerializationTime(wire), Bytes(wire) / bps)
          << wire << " B at " << bps << " bps";
    }
    for (const int64_t wire : {(int64_t{1} << 31) - 1, int64_t{1} << 31, int64_t{1} << 40}) {
      ASSERT_EQ(p->SerializationTime(Bytes(wire)), Bytes(wire) / bps)
          << wire << " B at " << bps << " bps";
    }
  }
}

TEST(QueueTest, TailDropWhenBufferFull) {
  Network net;
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  LinkOptions opts;
  opts.host_buffer_bytes = 3 * 1518;  // room for exactly 3 full frames
  net.Link(a, b, kGbps, 0, opts);
  net.BuildRoutes();

  SinkEndpoint sink(&net.scheduler());
  b->RegisterEndpoint(1, &sink);

  // The first packet starts serializing immediately (leaves the queue space
  // accounting only after serialization completes), so with a 3-frame buffer
  // we can accept 3 queued + 0 in flight at enqueue time of the 4th/5th.
  for (int i = 0; i < 6; ++i) {
    a->Send(MakeData(net, 1, a->id(), b->id(), kMssBytes));
  }
  net.scheduler().Run();

  Port* nic = a->nic();
  EXPECT_GT(nic->drops(), 0u);
  EXPECT_EQ(sink.packets.size() + nic->drops(), 6u);
  EXPECT_LE(nic->max_queue_bytes(), 3u * 1518u);
}

TEST(QueueTest, EcnMarkingAboveThreshold) {
  Network net;
  Host* a = net.AddHost("a");
  Switch* s = net.AddSwitch("s");
  Host* b = net.AddHost("b");
  LinkOptions opts;
  opts.ecn_threshold_bytes = 2 * 1518;
  net.Link(a, s, 10 * kGbps, 0, opts);  // fast ingress so the egress queues
  net.Link(s, b, kGbps, 0, opts);
  net.BuildRoutes();

  SinkEndpoint sink(&net.scheduler());
  b->RegisterEndpoint(1, &sink);

  for (int i = 0; i < 8; ++i) {
    auto pkt = MakeData(net, 1, a->id(), b->id(), kMssBytes);
    pkt->ecn_capable = true;
    a->Send(std::move(pkt));
  }
  net.scheduler().Run();

  ASSERT_EQ(sink.packets.size(), 8u);
  int marked = 0;
  for (const auto& p : sink.packets) {
    marked += p->ecn_ce ? 1 : 0;
  }
  // Early packets pass unmarked; once the switch egress queue exceeds 2
  // frames, later packets get CE.
  EXPECT_GT(marked, 0);
  EXPECT_LT(marked, 8);
  EXPECT_FALSE(sink.packets.front()->ecn_ce);
}

TEST(QueueTest, NonEcnCapablePacketsNeverMarked) {
  Network net;
  Host* a = net.AddHost("a");
  Switch* s = net.AddSwitch("s");
  Host* b = net.AddHost("b");
  LinkOptions opts;
  opts.ecn_threshold_bytes = 1518;
  net.Link(a, s, 10 * kGbps, 0, opts);
  net.Link(s, b, kGbps, 0, opts);
  net.BuildRoutes();

  SinkEndpoint sink(&net.scheduler());
  b->RegisterEndpoint(1, &sink);
  for (int i = 0; i < 6; ++i) {
    a->Send(MakeData(net, 1, a->id(), b->id(), kMssBytes));
  }
  net.scheduler().Run();
  for (const auto& p : sink.packets) {
    EXPECT_FALSE(p->ecn_ce);
  }
}

// What a port's accessors read at one instant.
struct PortView {
  uint64_t queue_bytes, queue_packets, tx_packets, tx_bytes, busy_ns;
  bool operator==(const PortView&) const = default;
};

std::ostream& operator<<(std::ostream& out, const PortView& v) {
  return out << "{queue_bytes " << v.queue_bytes << ", queue_packets " << v.queue_packets
             << ", tx_packets " << v.tx_packets << ", tx_bytes " << v.tx_bytes << ", busy_ns "
             << v.busy_ns << "}";
}

// A frame's end of serialization, as every reader and every arrival at that
// instant sees it. One 1,518-wire-byte frame on a 1 Gbps link ends at
// t_e = 12,144 ns. An event at t_e that was scheduled before the frame
// started runs before its end and still sees it queued; one scheduled
// after the frame started runs after its end and sees it sent. The port
// may skip the completion event (docs/perf.md, "Lazy serialization"), so
// this pins what its accessors, its gauges and its drop test read then.
TEST(PortTest, ReadersAndArrivalsAtTheEndOfSerializationSeeTheCompletionsOrder) {
  Network net;
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  net.Link(a, b, kGbps, Microseconds(5));
  net.BuildRoutes();
  SinkEndpoint sink(&net.scheduler());
  b->RegisterEndpoint(1, &sink);

  Port* nic = a->nic();
  constexpr uint32_t kPayload = 1518 - kHeaderBytes - kWireOverheadBytes;
  const Bytes frame = kPayload + kHeaderBytes;
  const TimeNs end = 12'144;
  ASSERT_EQ(nic->SerializationTime(Bytes(1518)), end);
  nic->set_buffer_limit(frame);  // room for exactly one frame

  // Reads the accessors, checks each gauge agrees, and returns them.
  const auto read = [&] {
    const PortView v{static_cast<uint64_t>(nic->queue_bytes().count()), nic->queue_packets(),
                 nic->tx_packets(), static_cast<uint64_t>(nic->tx_bytes().count()),
                 static_cast<uint64_t>(nic->busy_ns().count())};
    const std::string prefix = nic->metric_prefix();
    for (const auto& [gauge, want] : {std::pair{".queue_bytes", v.queue_bytes},
                                      std::pair{".queue_packets", v.queue_packets},
                                      std::pair{".tx_bytes", v.tx_bytes},
                                      std::pair{".busy_ns", v.busy_ns}}) {
      double got = -1;
      EXPECT_TRUE(net.metrics().Read(prefix + gauge, &got));
      EXPECT_EQ(got, static_cast<double>(want)) << gauge;
    }
    return v;
  };
  std::vector<PortView> views;
  const auto schedule_reader = [&] {
    net.scheduler().ScheduleAt(end, [&] { views.push_back(read()); });
  };
  const auto schedule_arrival = [&] {
    net.scheduler().ScheduleAt(end, [&] {
      nic->Enqueue(MakeData(net, 1, a->id(), b->id(), kPayload));
    });
  };

  schedule_reader();
  schedule_arrival();  // finds the frame still queued: no room
  nic->Enqueue(MakeData(net, 1, a->id(), b->id(), kPayload));
  schedule_reader();
  schedule_arrival();  // finds the buffer empty: admitted
  net.scheduler().Run();

  const uint64_t f = static_cast<uint64_t>(frame.count());
  const uint64_t e = static_cast<uint64_t>(end.count());
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0], (PortView{f, 1, 0, 0, 0}));
  EXPECT_EQ(views[1], (PortView{0, 0, 1, f, e}));
  EXPECT_EQ(nic->drops(), 1u);
  EXPECT_EQ(nic->tx_packets(), 2u);
  ASSERT_EQ(sink.arrival_times.size(), 2u);
  EXPECT_EQ(sink.arrival_times[0], end + Microseconds(5));
  EXPECT_EQ(sink.arrival_times[1], 2 * end + Microseconds(5));
}

// The tie docs/correctness.md ("Event order") documents as not exact, in
// the form the port itself makes: three 1,518-wire-byte frames queue at
// once on a 1 Gbps link whose propagation delay equals their
// serialization time, 12,144 ns. The completion that ends frame 1 starts
// frame 2, whose completion is then due at 24,288 ns, the instant frame
// 1 reaches the peer. A per-hop completion event scheduled frame 1's
// delivery before it started frame 2, so the delivery ran first; here
// frame 2's completion runs first, because every ordinary event born at
// an instant sorts before the deliveries born then. The ring shows it as
// frame 3's transmit, which that completion starts, before frame 1's
// delivery.
TEST(PortTest, NextFramesCompletionAtThePredecessorsDeliveryInstantRunsFirst) {
  Network net;
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  const TimeNs ser = 12'144;
  net.Link(a, b, kGbps, ser);
  net.BuildRoutes();
  SinkEndpoint sink(&net.scheduler());
  b->RegisterEndpoint(1, &sink);
  net.flight().Arm(64);

  Port* nic = a->nic();
  constexpr uint32_t kPayload = 1518 - kHeaderBytes - kWireOverheadBytes;
  ASSERT_EQ(nic->SerializationTime(Bytes(1518)), ser);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    PacketPtr pkt = MakeData(net, 1, a->id(), b->id(), kPayload);
    pkt->seq = seq;
    nic->Enqueue(std::move(pkt));
  }
  net.scheduler().Run();

  // The records at 24,288 ns, in ring (event) order.
  std::vector<std::pair<FlightEventType, uint64_t>> at;
  net.flight().ForEach([&](const FlightEvent& e) {
    if (e.time == 2 * ser) {
      at.emplace_back(e.type, e.seq);
    }
  });
  const std::vector<std::pair<FlightEventType, uint64_t>> want = {
      {FlightEventType::kTransmit, 3},  // frame 2's completion starts frame 3
      {FlightEventType::kDeliver, 1},   // then frame 1's delivery
  };
  EXPECT_EQ(at, want);
  ASSERT_EQ(sink.arrival_times.size(), 3u);
  EXPECT_EQ(sink.arrival_times[0], 2 * ser);
  EXPECT_EQ(sink.arrival_times[2], 4 * ser);
}

// A delivery's key holds the time from the end of serialization to its
// arrival, so a link's propagation delay is bounded where the link is
// made, not where the first delivery would overflow the key.
TEST(PortTest, RejectsALinkDelayPastTheBound) {
  Network net;
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  net.Link(a, b, kGbps, Port::kMaxDelay);  // the bound itself is fine
  Host* c = net.AddHost("c");
  EXPECT_DEATH(net.Link(a, c, kGbps, Port::kMaxDelay + 1), "prop_delay <= kMaxDelay");
}

TEST(RoutingTest, TestbedShortestPaths) {
  Network net;
  TestbedTopology topo = BuildTestbed(net);

  // H1 (on NF1) -> H4 (on NF2) must traverse NF1 -> NF0 -> NF2.
  SinkEndpoint sink(&net.scheduler());
  topo.hosts[3]->RegisterEndpoint(1, &sink);
  topo.hosts[0]->Send(
      MakeData(net, 1, topo.hosts[0]->id(), topo.hosts[3]->id(), kMssBytes));
  net.scheduler().Run();
  ASSERT_EQ(sink.packets.size(), 1u);
  // 4 hops: H1->NF1->NF0->NF2->H4, each 12304 ns serialization + 5 us.
  EXPECT_EQ(sink.arrival_times[0], 4 * (12304 + 5000));
}

TEST(RoutingTest, IntraRackPathIsTwoHops) {
  Network net;
  TestbedTopology topo = BuildTestbed(net);
  SinkEndpoint sink(&net.scheduler());
  topo.hosts[1]->RegisterEndpoint(1, &sink);
  topo.hosts[0]->Send(
      MakeData(net, 1, topo.hosts[0]->id(), topo.hosts[1]->id(), kMssBytes));
  net.scheduler().Run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], 2 * (12304 + 5000));
}

TEST(RoutingTest, LeafSpineRoutesAcrossRacks) {
  Network net;
  LeafSpineTopology topo = BuildLeafSpine(net, 4, 3);
  Host* src = topo.racks[0][0];
  Host* dst = topo.racks[3][2];
  SinkEndpoint sink(&net.scheduler());
  dst->RegisterEndpoint(1, &sink);
  src->Send(MakeData(net, 1, src->id(), dst->id(), kMssBytes));
  net.scheduler().Run();
  ASSERT_EQ(sink.packets.size(), 1u);
  // Host->leaf (1G) + leaf->spine (10G) + spine->leaf (10G) + leaf->host (1G),
  // each with 20 us propagation.
  const TimeNs expect = 2 * (12304 + 20000) + 2 * (1230 + 20000);
  EXPECT_EQ(sink.arrival_times[0], expect);
}

TEST(RoutingTest, UnroutablePacketCountsNotCrashes) {
  Network net;
  Host* a = net.AddHost("a");
  Switch* s = net.AddSwitch("s");
  net.Link(a, s, kGbps, 0);
  net.BuildRoutes();
  auto pkt = MakeData(net, 1, a->id(), 99, 100);  // bogus destination
  pkt->dst = a->id();  // route back to sender: host has no endpoint for it
  a->Send(std::move(pkt));
  net.scheduler().Run();
  // Delivered back to a, which has no endpoint registered for flow 1.
  EXPECT_EQ(a->unroutable_packets(), 1u);
}

TEST(RoutingTest, SwitchWithoutRouteCountsAndTracesTheDrop) {
  Network net;
  Host* a = net.AddHost("a");
  Switch* s = net.AddSwitch("s");
  Host* isolated = net.AddHost("isolated");
  net.Link(a, s, kGbps, 0);
  net.BuildRoutes();
  net.flight().Arm(64);
  a->Send(MakeData(net, 1, a->id(), 99, 100));             // beyond the table
  a->Send(MakeData(net, 1, a->id(), isolated->id(), 100));  // unreachable
  net.scheduler().Run();
  EXPECT_EQ(s->unroutable_packets(), 2u);
  int drops_at_s = 0;
  net.flight().ForEach([&](const FlightEvent& e) {
    drops_at_s += e.type == FlightEventType::kDrop && e.node == s->id() ? 1 : 0;
  });
  EXPECT_EQ(drops_at_s, 2);
}

TEST(HostTest, ProcessingDelayPreservesPacketOrder) {
  Network net(/*seed=*/123);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  net.Link(a, b, kGbps, 0);
  net.BuildRoutes();
  a->set_processing_delay(Microseconds(5), Microseconds(20));

  SinkEndpoint sink(&net.scheduler());
  b->RegisterEndpoint(1, &sink);
  for (int i = 0; i < 50; ++i) {
    auto pkt = MakeData(net, 1, a->id(), b->id(), 100);
    pkt->seq = static_cast<uint64_t>(i);
    a->Send(std::move(pkt));
  }
  net.scheduler().Run();
  ASSERT_EQ(sink.packets.size(), 50u);
  for (size_t i = 0; i < sink.packets.size(); ++i) {
    EXPECT_EQ(sink.packets[i]->seq, i);  // no reordering
  }
  // And delay was actually applied.
  EXPECT_GE(sink.arrival_times[0], Microseconds(5));
}

TEST(HostTest, AFlowIdHoldsOneEndpointPerHostAndTwoInAll) {
  Network net;
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Host* c = net.AddHost("c");
  SinkEndpoint ea(&net.scheduler());
  SinkEndpoint eb(&net.scheduler());
  SinkEndpoint ec(&net.scheduler());
  const int flow = net.AllocateFlowId();
  a->RegisterEndpoint(flow, &ea);
  b->RegisterEndpoint(flow, &eb);
  EXPECT_DEATH(c->RegisterEndpoint(flow, &ec), "already has two endpoints");
  EXPECT_DEATH(a->RegisterEndpoint(flow, &ec), "already has an endpoint on host");
  // A freed slot is reusable: unregister, then register again on one host.
  b->UnregisterEndpoint(flow);
  b->RegisterEndpoint(flow, &ec);
  b->Receive(MakeData(net, flow, a->id(), b->id(), 100), nullptr);
  EXPECT_EQ(eb.packets.size(), 0u);
  EXPECT_EQ(ec.packets.size(), 1u);
  EXPECT_EQ(b->unroutable_packets(), 0u);
}

TEST(HostTest, NegativeAndUnregisteredFlowIdsAreUnroutable) {
  Network net;
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  SinkEndpoint sink(&net.scheduler());
  a->RegisterEndpoint(1, &sink);
  net.flight().Arm(64);
  for (const int flow : {-1, -7, 1, 2, 1 << 20}) {  // flow 1 lives on a, not b
    b->Receive(MakeData(net, flow, a->id(), b->id(), 100), nullptr);
  }
  EXPECT_EQ(b->unroutable_packets(), 5u);
  EXPECT_TRUE(sink.packets.empty());
  int drops = 0;
  net.flight().ForEach([&](const FlightEvent& e) {
    drops += e.type == FlightEventType::kDrop && e.node == b->id() ? 1 : 0;
  });
  EXPECT_EQ(drops, 5);
}

TEST(NetworkTest, FindPortLocatesDirectNeighbors) {
  Network net;
  MultiBottleneckTopology topo = BuildMultiBottleneck(net);
  Port* p = Network::FindPort(topo.s1, topo.s2);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->owner(), topo.s1);
  EXPECT_EQ(p->peer(), topo.s2);
  EXPECT_EQ(Network::FindPort(topo.h1, topo.s2), nullptr);
}

TEST(NetworkTest, SwitchBuffersUseSwitchLimitHostsUseHostLimit) {
  Network net;
  LinkOptions opts;
  opts.switch_buffer_bytes = 512 * 1024;
  opts.host_buffer_bytes = 1024 * 1024;
  Host* a = net.AddHost("a");
  Switch* s = net.AddSwitch("s");
  Port* pa = net.Link(a, s, kGbps, 0, opts);
  EXPECT_EQ(pa->buffer_limit(), 1024u * 1024u);
  EXPECT_EQ(pa->peer_port()->buffer_limit(), 512u * 1024u);
}

}  // namespace
}  // namespace tfc
