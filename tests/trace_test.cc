// Packet-tracing tests: event coverage, conservation identities between
// event counts, text formatting, and flow filtering.

#include <gtest/gtest.h>

#include <sstream>

#include "src/net/network.h"
#include "src/net/trace.h"
#include "src/tcp/tcp.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"

namespace tfc {
namespace {

struct TracedDumbbell {
  Network net{13};
  Host* a;
  Host* b;
  Switch* s;

  explicit TracedDumbbell(LinkOptions opts = LinkOptions()) {
    a = net.AddHost("a");
    b = net.AddHost("b");
    s = net.AddSwitch("s");
    net.Link(a, s, kGbps, Microseconds(5), opts);
    net.Link(s, b, kGbps, Microseconds(5), opts);
    net.BuildRoutes();
  }
};

TEST(TraceTest, CountsBalanceOnLosslessRun) {
  TracedDumbbell d;
  CountingTracer tracer;
  d.net.set_tracer(&tracer);

  TcpSender flow(&d.net, d.a, d.b, TcpConfig());
  flow.Write(500'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  EXPECT_GT(tracer.enqueues, 0u);
  EXPECT_EQ(tracer.drops, 0u);
  // Lossless: everything enqueued was transmitted.
  EXPECT_EQ(tracer.enqueues, tracer.transmits);
  // Every host delivery corresponds to a final-hop transmit; forward path
  // has two hops (NIC + switch) and the reverse ACK path two as well, so
  // transmits = 2 * delivers exactly in this topology.
  EXPECT_EQ(tracer.transmits, 2 * tracer.delivers);
}

TEST(TraceTest, DropsAreTraced) {
  LinkOptions opts;
  opts.switch_buffer_bytes = 4 * 1518;
  TracedDumbbell d(opts);
  // A second sender makes the switch egress contend.
  Host* a2 = d.net.AddHost("a2");
  d.net.Link(a2, d.s, kGbps, Microseconds(5), opts);
  d.net.BuildRoutes();

  CountingTracer tracer;
  d.net.set_tracer(&tracer);
  TcpSender f1(&d.net, d.a, d.b, TcpConfig());
  TcpSender f2(&d.net, a2, d.b, TcpConfig());
  f1.Write(2'000'000);
  f2.Write(2'000'000);
  f1.Start();
  f2.Start();
  d.net.scheduler().RunUntil(Milliseconds(200));

  Port* bottleneck = Network::FindPort(d.s, d.b);
  EXPECT_EQ(tracer.drops, bottleneck->drops() + d.a->nic()->drops() + a2->nic()->drops());
  EXPECT_GT(tracer.drops, 0u);
  EXPECT_EQ(tracer.enqueues, tracer.transmits + bottleneck->queue_bytes() / 1518);
}

TEST(TraceTest, TextFormatContainsTheEssentials) {
  TracedDumbbell d;
  std::ostringstream out;
  TextTracer tracer(&out);
  d.net.set_tracer(&tracer);

  TcpSender flow(&d.net, d.a, d.b, TcpConfig());
  flow.Write(kMssBytes);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  const std::string text = out.str();
  EXPECT_NE(text.find("SYN"), std::string::npos);
  EXPECT_NE(text.find("DATA"), std::string::npos);
  EXPECT_NE(text.find("FINACK"), std::string::npos);
  EXPECT_NE(text.find("len=1460"), std::string::npos);
  EXPECT_NE(text.find("+ a:p0"), std::string::npos);  // NIC enqueue
  EXPECT_GT(tracer.events_written(), 10u);
}

TEST(TraceTest, FlowFilterSelectsOneFlow) {
  TracedDumbbell d;
  TcpSender f1(&d.net, d.a, d.b, TcpConfig());
  TcpSender f2(&d.net, d.a, d.b, TcpConfig());

  std::ostringstream out;
  TextTracer tracer(&out, /*flow_filter=*/f2.flow_id());
  d.net.set_tracer(&tracer);
  for (TcpSender* f : {&f1, &f2}) {
    f->Write(10'000);
    f->Close();
    f->Start();
  }
  d.net.scheduler().Run();

  const std::string needle1 = "f=" + std::to_string(f1.flow_id());
  const std::string needle2 = "f=" + std::to_string(f2.flow_id());
  EXPECT_EQ(out.str().find(needle1), std::string::npos);
  EXPECT_NE(out.str().find(needle2), std::string::npos);
}

// Direct OnEvent tests: hand the tracer a crafted event and pin the exact
// rendered line, so format drift is caught without a full simulation run.
TEST(TraceTest, DirectEventRendersExactLine) {
  TracedDumbbell d;
  Port* port = Network::FindPort(d.s, d.b);

  Packet pkt;
  pkt.flow_id = 7;
  pkt.type = PacketType::kData;
  pkt.seq = 14600;
  pkt.payload = 1460;
  pkt.rm = true;

  std::ostringstream out;
  TextTracer tracer(&out);
  const FlightEvent event = MakePacketEvent(Microseconds(3'021'840),
                                            FlightEventType::kEnqueue, pkt, d.s, port);
  tracer.OnEvent(event, d.net);

  EXPECT_EQ(out.str(), "3.021840 + s:p1 DATA f=7 seq=14600 len=1460 rm q=0\n");
  EXPECT_EQ(tracer.events_written(), 1u);
}

TEST(TraceTest, DirectDeliverEventOmitsPortAndShowsFlags) {
  TracedDumbbell d;

  Packet pkt;
  pkt.flow_id = 3;
  pkt.type = PacketType::kAck;
  pkt.seq = 1;
  pkt.rma = true;
  pkt.window = 2920;
  pkt.ecn_ce = true;

  std::ostringstream out;
  TextTracer tracer(&out);
  tracer.OnEvent(
      MakePacketEvent(Seconds(1.5), FlightEventType::kDeliver, pkt, d.b, nullptr),
      d.net);

  EXPECT_EQ(out.str(), "1.500000 r b ACK f=3 seq=1 len=0 rma w=2920 ce\n");
}

// Control-plane events render with the '*' marker, the event mnemonic, and
// per-type key=value payload fields.
TEST(TraceTest, DirectSlotEndEventRendersExactLine) {
  TracedDumbbell d;
  Port* port = Network::FindPort(d.s, d.b);

  std::ostringstream out;
  TextTracer tracer(&out);
  FlightEvent e = ControlFlightEvent(FlightEventType::kSlotEnd, d.s->id(),
                                     port->index(), 4);
  e.time = Microseconds(213);
  e.seq = 8;  // effective flows E
  e.a = 11680;
  e.b = 1460;
  e.c = 52000;
  tracer.OnEvent(e, d.net);

  EXPECT_EQ(out.str(), "0.000213 * s:p1 slot_end E=8 token=11680 w=1460 rtt_m=52000 f=4\n");
  EXPECT_EQ(tracer.events_written(), 1u);
}

TEST(TraceTest, DirectGrantEventRendersExactLine) {
  TracedDumbbell d;
  Port* port = Network::FindPort(d.s, d.b);

  std::ostringstream out;
  TextTracer tracer(&out);
  FlightEvent e = ControlFlightEvent(FlightEventType::kTokenGrant, d.s->id(),
                                     port->index(), 3);
  e.time = Microseconds(201);
  e.a = 2920;
  e.b = -1460;  // the arbiter counter legitimately goes negative (debt)
  tracer.OnEvent(e, d.net);

  EXPECT_EQ(out.str(), "0.000201 * s:p1 grant w=2920 ctr=-1460 f=3\n");
}

TEST(TraceTest, DirectProbeEventIsPortlessAndRendersAttempt) {
  TracedDumbbell d;

  std::ostringstream out;
  TextTracer tracer(&out);
  FlightEvent e = ControlFlightEvent(FlightEventType::kProbeSend, d.a->id(), -1, 2);
  e.time = Microseconds(100);
  e.seq = 0;
  e.a = 1;
  tracer.OnEvent(e, d.net);

  EXPECT_EQ(out.str(), "0.000100 * a probe seq=0 attempt=1 f=2\n");
}

TEST(TraceTest, DirectWipeEventHasNoFlow) {
  TracedDumbbell d;
  Port* port = Network::FindPort(d.s, d.a);

  std::ostringstream out;
  TextTracer tracer(&out);
  FlightEvent e = ControlFlightEvent(FlightEventType::kAgentWipe, d.s->id(),
                                     port->index(), -1);
  e.time = Milliseconds(10);
  e.a = 1;
  tracer.OnEvent(e, d.net);

  EXPECT_EQ(out.str(), "0.010000 * s:p0 wipe n=1\n");
}

// An unknown node id (offline dump with a truncated name table) falls back
// to "n<id>" instead of crashing or printing garbage.
TEST(TraceTest, UnknownNodeIdRendersFallbackName) {
  FlightDump dump;  // empty name table
  std::ostringstream out;
  TextTracer tracer(&out);
  FlightEvent e = ControlFlightEvent(FlightEventType::kLinkDown, 5, 2, -1);
  e.time = Microseconds(1);
  tracer.OnEvent(e, dump);
  EXPECT_EQ(out.str(), "0.000001 * n5:p2 link_down\n");
}

// Filters apply to control-plane events exactly as to packet events: the
// flow filter matches the event's flow id, the node filter its node name,
// and a port filter excludes portless (host-side) control events.
TEST(TraceTest, FiltersApplyToControlEvents) {
  TracedDumbbell d;
  Port* port = Network::FindPort(d.s, d.b);

  FlightEvent grant = ControlFlightEvent(FlightEventType::kTokenGrant, d.s->id(),
                                         port->index(), 3);
  FlightEvent probe = ControlFlightEvent(FlightEventType::kProbeSend, d.a->id(), -1, 3);
  FlightEvent other = ControlFlightEvent(FlightEventType::kTokenGrant, d.s->id(),
                                         port->index(), 9);

  {
    std::ostringstream out;
    TextTracer tracer(&out, /*flow_filter=*/3);
    tracer.OnEvent(grant, d.net);
    tracer.OnEvent(other, d.net);
    EXPECT_EQ(tracer.events_written(), 1u);
    EXPECT_NE(out.str().find("f=3"), std::string::npos);
    EXPECT_EQ(out.str().find("f=9"), std::string::npos);
  }
  {
    std::ostringstream out;
    TextTracer tracer(&out);
    tracer.set_node_filter("s");
    tracer.OnEvent(grant, d.net);
    tracer.OnEvent(probe, d.net);
    EXPECT_EQ(tracer.events_written(), 1u);
    EXPECT_NE(out.str().find("grant"), std::string::npos);
  }
  {
    std::ostringstream out;
    TextTracer tracer(&out);
    tracer.set_port_filter(port->index());
    tracer.OnEvent(grant, d.net);
    tracer.OnEvent(probe, d.net);  // portless: excluded by any port filter
    EXPECT_EQ(tracer.events_written(), 1u);
  }
}

// CountingTracer tallies control-plane events both in aggregate and per type.
TEST(TraceTest, CountingTracerCountsControlEvents) {
  TracedDumbbell d;
  CountingTracer tracer;
  FlightEvent grant = ControlFlightEvent(FlightEventType::kTokenGrant, d.s->id(), 1, 3);
  FlightEvent wipe = ControlFlightEvent(FlightEventType::kAgentWipe, d.s->id(), 1, -1);
  tracer.OnEvent(grant, d.net);
  tracer.OnEvent(grant, d.net);
  tracer.OnEvent(wipe, d.net);
  EXPECT_EQ(tracer.control, 3u);
  EXPECT_EQ(tracer.by_type[static_cast<size_t>(FlightEventType::kTokenGrant)], 2u);
  EXPECT_EQ(tracer.by_type[static_cast<size_t>(FlightEventType::kAgentWipe)], 1u);
  EXPECT_EQ(tracer.enqueues, 0u);
}

// A live TFC run emits the control-plane events through the installed
// tracer: grants, slot begin/end pairs, and the senders' probe/rma pairs.
TEST(TraceTest, TfcRunEmitsControlPlaneEvents) {
  TracedDumbbell d;
  InstallTfcSwitches(d.net, TfcSwitchConfig());
  CountingTracer tracer;
  d.net.set_tracer(&tracer);

  TfcSender flow(&d.net, d.a, d.b, TfcHostConfig());
  flow.Write(200'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  EXPECT_EQ(flow.delivered_bytes(), 200'000u);
  EXPECT_GT(tracer.control, 0u);
  EXPECT_GT(tracer.by_type[static_cast<size_t>(FlightEventType::kProbeSend)], 0u);
  EXPECT_GT(tracer.by_type[static_cast<size_t>(FlightEventType::kRmaReceive)], 0u);
  EXPECT_GT(tracer.by_type[static_cast<size_t>(FlightEventType::kDelimiterAdopt)], 0u);
  EXPECT_GT(tracer.by_type[static_cast<size_t>(FlightEventType::kSlotBegin)], 0u);
  EXPECT_GT(tracer.by_type[static_cast<size_t>(FlightEventType::kSlotEnd)], 0u);
  EXPECT_GT(tracer.by_type[static_cast<size_t>(FlightEventType::kAgentConverge)], 0u);
  // Slots alternate begin/end: every end had a begin.
  EXPECT_GE(tracer.by_type[static_cast<size_t>(FlightEventType::kSlotBegin)],
            tracer.by_type[static_cast<size_t>(FlightEventType::kSlotEnd)]);
}

TEST(TraceTest, NodeFilterSelectsOneNode) {
  TracedDumbbell d;
  std::ostringstream out;
  TextTracer tracer(&out);
  tracer.set_node_filter("s");
  d.net.set_tracer(&tracer);

  TcpSender flow(&d.net, d.a, d.b, TcpConfig());
  flow.Write(50'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  const std::string text = out.str();
  EXPECT_GT(tracer.events_written(), 0u);
  // Every line names the switch; no host-side events leak through. Host
  // events would render as "+ a:p0", "+ b:p0", or deliveries "r a"/"r b".
  EXPECT_NE(text.find(" s:p"), std::string::npos);
  EXPECT_EQ(text.find(" a:p"), std::string::npos);
  EXPECT_EQ(text.find(" b:p"), std::string::npos);
  EXPECT_EQ(text.find(" r a "), std::string::npos);
  EXPECT_EQ(text.find(" r b "), std::string::npos);
}

TEST(TraceTest, PortFilterSelectsOnePortAndExcludesDelivers) {
  TracedDumbbell d;
  Port* to_b = Network::FindPort(d.s, d.b);

  std::ostringstream out;
  TextTracer tracer(&out);
  tracer.set_node_filter("s");
  tracer.set_port_filter(to_b->index());
  d.net.set_tracer(&tracer);

  TcpSender flow(&d.net, d.a, d.b, TcpConfig());
  flow.Write(50'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  const std::string text = out.str();
  EXPECT_GT(tracer.events_written(), 0u);
  const std::string wanted = ":p" + std::to_string(to_b->index());
  // Only the bottleneck port appears: the switch's other port (toward a)
  // carries the ACK stream and must be filtered out, as are deliveries
  // (they have no port).
  EXPECT_NE(text.find(wanted), std::string::npos);
  for (const auto& port : d.s->ports()) {
    if (port->index() == to_b->index()) {
      continue;
    }
    EXPECT_EQ(text.find(":p" + std::to_string(port->index())), std::string::npos);
  }
  EXPECT_EQ(text.find(" r "), std::string::npos);
}

TEST(TraceTest, CountingTracerDropAccountingUnderFullBuffer) {
  // A buffer of two frames forces sustained tail drops at the bottleneck.
  LinkOptions opts;
  opts.switch_buffer_bytes = 2 * 1518;
  TracedDumbbell d(opts);
  Host* a2 = d.net.AddHost("a2");
  d.net.Link(a2, d.s, kGbps, Microseconds(5), opts);
  d.net.BuildRoutes();

  CountingTracer tracer;
  d.net.set_tracer(&tracer);
  TcpSender f1(&d.net, d.a, d.b, TcpConfig());
  TcpSender f2(&d.net, a2, d.b, TcpConfig());
  f1.Write(1'000'000);
  f2.Write(1'000'000);
  f1.Start();
  f2.Start();
  d.net.scheduler().RunUntil(Milliseconds(100));

  uint64_t port_drops = 0;
  for (const auto& node : d.net.nodes()) {
    for (const auto& port : node->ports()) {
      port_drops += port->drops();
    }
  }
  EXPECT_GT(tracer.drops, 0u);
  // Every drop anywhere is traced exactly once...
  EXPECT_EQ(tracer.drops, port_drops);
  // ...and drops never show up as enqueues: what entered a queue either
  // left on the wire or is still sitting in some queue right now.
  uint64_t queued_frames = 0;
  for (const auto& node : d.net.nodes()) {
    for (const auto& port : node->ports()) {
      queued_frames += port->queue_packets();
    }
  }
  EXPECT_EQ(tracer.enqueues, tracer.transmits + queued_frames);
}

TEST(TraceTest, NoTracerMeansNoOverheadPathStillWorks) {
  TracedDumbbell d;
  EXPECT_EQ(d.net.tracer(), nullptr);
  TcpSender flow(&d.net, d.a, d.b, TcpConfig());
  flow.Write(100'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();
  EXPECT_EQ(flow.delivered_bytes(), 100'000u);
}

}  // namespace
}  // namespace tfc
