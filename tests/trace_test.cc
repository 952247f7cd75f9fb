// Packet-tracing tests: event coverage, conservation identities between
// event counts read from the flight ring, text formatting, and the text
// exports.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <vector>

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
    net.flight().Arm(1 << 16);
    a = net.AddHost("a");
    b = net.AddHost("b");
    s = net.AddSwitch("s");
    net.Link(a, s, kGbps, Microseconds(5), opts);
    net.Link(s, b, kGbps, Microseconds(5), opts);
    net.BuildRoutes();
  }
};

// Per-type event counts over the whole run, read from the armed ring.
struct EventCounts {
  uint64_t by_type[kFlightEventTypeCount] = {};
  uint64_t control = 0;  // every event that is not a packet event

  uint64_t operator[](FlightEventType type) const {
    return by_type[static_cast<size_t>(type)];
  }
};

// The ring must hold every event the run recorded, or counts would miss
// the oldest ones.
void ExpectRingDidNotWrap(const Network& net) {
  EXPECT_EQ(net.flight().size(), net.flight().recorded()) << "the ring wrapped";
}

EventCounts CountEvents(const Network& net) {
  ExpectRingDidNotWrap(net);
  EventCounts counts;
  net.flight().ForEach([&](const FlightEvent& e) {
    ++counts.by_type[static_cast<size_t>(e.type)];
    counts.control += IsPacketFlightEvent(e.type) ? 0 : 1;
  });
  return counts;
}

// Packets that entered a queue and have not started serializing. A port's
// queue_packets() counts its frame on the wire too, and a port with a
// packet waiting always has a frame on the wire (Port::AuditInvariants).
uint64_t WaitingPackets(const Network& net) {
  uint64_t waiting = 0;
  for (const auto& node : net.nodes()) {
    for (const auto& port : node->ports()) {
      const size_t queued = port->queue_packets();
      waiting += queued > 0 ? queued - 1 : 0;
    }
  }
  return waiting;
}

std::string RenderLine(const Network& net, const FlightEvent& e) {
  std::ostringstream out;
  WriteFlightEventLine(out, e, net.NodeName(e.node));
  return out.str();
}

// The ring's events as text, oldest first.
std::string RenderRing(const Network& net) {
  ExpectRingDidNotWrap(net);
  std::string text;
  net.flight().ForEach([&](const FlightEvent& e) { text += RenderLine(net, e); });
  return text;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(TraceTest, CountsBalanceOnLosslessRun) {
  TracedDumbbell d;

  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  flow.Write(500'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  const EventCounts n = CountEvents(d.net);
  EXPECT_GT(n[FlightEventType::kEnqueue], 0u);
  EXPECT_EQ(n[FlightEventType::kDrop], 0u);
  // Lossless: everything enqueued was transmitted.
  EXPECT_EQ(n[FlightEventType::kEnqueue], n[FlightEventType::kTransmit]);
  // Every host delivery corresponds to a final-hop transmit; forward path
  // has two hops (NIC + switch) and the reverse ACK path two as well, so
  // transmits = 2 * delivers exactly in this topology.
  EXPECT_EQ(n[FlightEventType::kTransmit], 2 * n[FlightEventType::kDeliver]);
}

TEST(TraceTest, DropsAreTraced) {
  LinkOptions opts;
  opts.switch_buffer_bytes = 4 * 1518;
  TracedDumbbell d(opts);
  // A second sender makes the switch egress contend.
  Host* a2 = d.net.AddHost("a2");
  d.net.Link(a2, d.s, kGbps, Microseconds(5), opts);
  d.net.BuildRoutes();

  TcpSender f1(&d.net, d.a, d.b, TransportConfig());
  TcpSender f2(&d.net, a2, d.b, TransportConfig());
  f1.Write(2'000'000);
  f2.Write(2'000'000);
  f1.Start();
  f2.Start();
  d.net.scheduler().RunUntil(Milliseconds(10));  // mid-transfer
  ASSERT_LT(f1.delivered_bytes() + f2.delivered_bytes(), 4'000'000u);

  const EventCounts n = CountEvents(d.net);
  Port* bottleneck = Network::FindPort(d.s, d.b);
  EXPECT_EQ(n[FlightEventType::kDrop],
            bottleneck->drops() + d.a->nic()->drops() + a2->nic()->drops());
  EXPECT_GT(n[FlightEventType::kDrop], 0u);
  // A transmit is recorded when its packet leaves the queue, so what
  // entered a queue has either left it or still waits in it.
  const uint64_t waiting = WaitingPackets(d.net);
  EXPECT_GT(waiting, 0u);
  EXPECT_EQ(n[FlightEventType::kEnqueue], n[FlightEventType::kTransmit] + waiting);
}

TEST(TraceTest, TextFormatContainsTheEssentials) {
  TracedDumbbell d;

  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  flow.Write(kMssBytes);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  const std::string text = RenderRing(d.net);
  EXPECT_NE(text.find("SYN"), std::string::npos);
  EXPECT_NE(text.find("DATA"), std::string::npos);
  EXPECT_NE(text.find("FINACK"), std::string::npos);
  EXPECT_NE(text.find("len=1460"), std::string::npos);
  EXPECT_NE(text.find("+ a:p0"), std::string::npos);  // NIC enqueue
  EXPECT_GT(d.net.flight().recorded(), 10u);
}

// --export-trace's text files on a TFC run, so control-plane events are in
// them: trace.txt is the ring rendered in order, and each flows.txt section
// holds only its own flow's events.
TEST(TraceTest, FlowFilterSelectsOneFlow) {
  TracedDumbbell d;
  InstallTfcSwitches(d.net, TfcSwitchConfig());
  TfcSender f1(&d.net, d.a, d.b, TfcHostConfig());
  TfcSender f2(&d.net, d.a, d.b, TfcHostConfig());
  for (TfcSender* f : {&f1, &f2}) {
    f->Write(10'000);
    f->Close();
    f->Start();
  }
  d.net.scheduler().Run();

  const std::string dir = testing::TempDir() + "/tfc_trace_export";
  std::filesystem::create_directories(dir);
  std::string error;
  ASSERT_TRUE(d.net.DumpFlight(dir + "/flight.tfct", &error)) << error;
  ASSERT_TRUE(ExportFlightTrace(dir, &error)) << error;
  EXPECT_EQ(ReadFile(dir + "/trace.txt"), RenderRing(d.net));

  uint64_t flow_events = 0;
  d.net.flight().ForEach([&](const FlightEvent& e) { flow_events += e.flow >= 0 ? 1 : 0; });
  std::istringstream flows(ReadFile(dir + "/flows.txt"));
  std::map<int, uint64_t> lines_by_flow;
  uint64_t control_lines = 0;
  int section = -1;
  std::string line;
  while (std::getline(flows, line)) {
    if (line.rfind("=== flow ", 0) == 0) {
      section = std::stoi(line.substr(9));
      continue;
    }
    ASSERT_GE(section, 0) << "event line before the first section: " << line;
    const size_t f = line.find(" f=");
    ASSERT_NE(f, std::string::npos) << line;
    EXPECT_EQ(std::stoi(line.substr(f + 3)), section) << line;
    ++lines_by_flow[section];
    control_lines += line.find(" * ") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(lines_by_flow.size(), 2u);
  EXPECT_GT(lines_by_flow[f1.flow_id()], 0u);
  EXPECT_GT(lines_by_flow[f2.flow_id()], 0u);
  EXPECT_EQ(lines_by_flow[f1.flow_id()] + lines_by_flow[f2.flow_id()], flow_events);
  EXPECT_GT(control_lines, 0u);

  // Byte for byte: one section per flow id, ascending, each holding that
  // flow's events in ring order.
  std::map<int, std::string> sections;
  d.net.flight().ForEach([&](const FlightEvent& e) {
    if (e.flow >= 0) {
      sections[e.flow] += RenderLine(d.net, e);
    }
  });
  std::string expected;
  for (const auto& [flow, text] : sections) {
    expected += "=== flow " + std::to_string(flow) + " ===\n" + text;
  }
  EXPECT_EQ(ReadFile(dir + "/flows.txt"), expected);
}

// The Perfetto export's pairing rules on a ring filled by hand: a slot_begin
// pairs with the next slot_end on its (node, port), a second begin before
// that end replaces the first, a begin that never closes and an end with no
// begin are not paired, and a flow spans its first to its last event.
TEST(TraceTest, PerfettoExportPairsSlotsAndSpansFlows) {
  const auto slot = [](FlightEventType type, int64_t t, int port, uint64_t epoch) {
    FlightEvent e = ControlFlightEvent(type, 1, port, -1);
    e.time = TimeNs(t);
    e.seq = epoch;
    return e;
  };
  const auto packet = [](FlightEventType type, int64_t t, int node, int port, int flow) {
    FlightEvent e;
    e.time = TimeNs(t);
    e.type = type;
    e.node = static_cast<int16_t>(node);
    e.port = static_cast<int16_t>(port);
    e.flow = flow;
    e.a = 1460;
    return e;
  };
  FlightEvent unpaired_end = slot(FlightEventType::kSlotEnd, 1000, 0, 1);
  unpaired_end.a = 10;
  FlightEvent end = slot(FlightEventType::kSlotEnd, 4000, 1, 3);
  end.a = 1000;
  end.b = 2000;
  end.c = 3000;
  FlightRecorder ring;
  ring.Arm(FlightRecorder::kMinCapacity);
  for (const FlightEvent& e : {
           unpaired_end,                                          // port 0: no begin
           packet(FlightEventType::kEnqueue, 1500, 0, 0, 7),      // flow 7 starts
           slot(FlightEventType::kSlotBegin, 2000, 1, 2),         // port 1: replaced
           slot(FlightEventType::kSlotBegin, 2500, 1, 3),         // port 1: pairs
           packet(FlightEventType::kEnqueue, 3000, 1, 1, 8),      // flow 8 starts
           end,                                                   // port 1: closes
           slot(FlightEventType::kSlotBegin, 4500, 2, 4),         // port 2: never closes
           packet(FlightEventType::kDeliver, 5000, 1, -1, 7),     // flow 7 ends
           packet(FlightEventType::kTransmit, 6000, 0, 0, 8),     // flow 8 ends
       }) {
    ring.Record(e);
  }
  const std::string dir = testing::TempDir() + "/tfc_trace_slot_pairing";
  std::filesystem::create_directories(dir);
  std::string error;
  ASSERT_TRUE(ring.Dump(dir + "/flight.tfct", {"h0", "s1"}, &error)) << error;
  ASSERT_TRUE(ExportFlightTrace(dir, &error)) << error;

  // One object a line; keep every non-metadata one, without its comma.
  std::istringstream json(ReadFile(dir + "/trace.perfetto.json"));
  std::vector<std::string> objects;
  std::string line;
  while (std::getline(json, line)) {
    if (line.rfind("{\"ph\":", 0) == 0 && line.rfind("{\"ph\":\"M\"", 0) != 0) {
      objects.push_back(line.back() == ',' ? line.substr(0, line.size() - 1) : line);
    }
  }
  const auto count = [&](const std::string& needle) {
    return std::count_if(objects.begin(), objects.end(), [&](const std::string& o) {
      return o.find(needle) != std::string::npos;
    });
  };
  const auto has = [&](const std::string& object) {
    return std::find(objects.begin(), objects.end(), object) != objects.end();
  };
  EXPECT_EQ(count("\"ph\":\"X\""), 1);
  EXPECT_TRUE(has("{\"ph\":\"X\",\"name\":\"slot\",\"cat\":\"tfc\",\"pid\":1,\"tid\":2,"
                  "\"ts\":2.5,\"dur\":1.5,\"args\":{\"E\":3,\"token\":1000,\"w\":2000,"
                  "\"rtt_m\":3000}}"));
  EXPECT_EQ(count("\"name\":\"slot_end\""), 1);
  EXPECT_TRUE(has("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"slot_end\",\"cat\":\"tfc\",\"pid\":1,"
                  "\"tid\":1,\"ts\":1,\"args\":{\"E\":1,\"token\":10,\"w\":0,\"rtt_m\":0}}"));
  EXPECT_EQ(count("\"name\":\"slot_begin\""), 0);
  // Both ends of a flow's span sit on its first event's node.
  EXPECT_TRUE(has("{\"ph\":\"b\",\"cat\":\"flow\",\"id\":7,\"name\":\"flow 7\",\"pid\":0,"
                  "\"tid\":0,\"ts\":1.5,\"args\":{}}"));
  EXPECT_TRUE(has("{\"ph\":\"e\",\"cat\":\"flow\",\"id\":7,\"name\":\"flow 7\",\"pid\":0,"
                  "\"tid\":0,\"ts\":5,\"args\":{}}"));
  EXPECT_TRUE(has("{\"ph\":\"b\",\"cat\":\"flow\",\"id\":8,\"name\":\"flow 8\",\"pid\":1,"
                  "\"tid\":0,\"ts\":3,\"args\":{}}"));
  EXPECT_TRUE(has("{\"ph\":\"e\",\"cat\":\"flow\",\"id\":8,\"name\":\"flow 8\",\"pid\":1,"
                  "\"tid\":0,\"ts\":6,\"args\":{}}"));
  // Four packet instants, the X, the unpaired end and two spans of two ends.
  EXPECT_EQ(objects.size(), 10u);
  double last_ts = 0;
  for (const std::string& o : objects) {
    const double ts = std::stod(o.substr(o.find("\"ts\":") + 5));
    EXPECT_GE(ts, last_ts) << o;
    last_ts = ts;
  }
}

// Direct rendering tests: render a crafted event and pin the exact line, so
// format drift is caught without a full simulation run.
TEST(TraceTest, DirectEventRendersExactLine) {
  TracedDumbbell d;
  Port* port = Network::FindPort(d.s, d.b);

  Packet pkt;
  pkt.flow_id = 7;
  pkt.type = PacketType::kData;
  pkt.seq = 14600;
  pkt.payload = 1460;
  pkt.rm = true;

  const FlightEvent event = MakePacketEvent(Microseconds(3'021'840), FlightEventType::kEnqueue,
                                            pkt, d.s, port, port->queue_bytes());
  EXPECT_EQ(RenderLine(d.net, event),
            "3.021840 + s:p1 DATA f=7 seq=14600 len=1460 rm q=0\n");
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

  EXPECT_EQ(RenderLine(d.net, MakePacketEvent(Seconds(1.5), FlightEventType::kDeliver,
                                              pkt, d.b, nullptr, 0)),
            "1.500000 r b ACK f=3 seq=1 len=0 rma w=2920 ce\n");
}

// Control-plane events render with the '*' marker, the event mnemonic, and
// per-type key=value payload fields.
TEST(TraceTest, DirectSlotEndEventRendersExactLine) {
  TracedDumbbell d;
  Port* port = Network::FindPort(d.s, d.b);

  FlightEvent e = ControlFlightEvent(FlightEventType::kSlotEnd, d.s->id(),
                                     port->index(), 4);
  e.time = Microseconds(213);
  e.seq = 8;  // effective flows E
  e.a = 11680;
  e.b = 1460;
  e.c = 52000;
  EXPECT_EQ(RenderLine(d.net, e),
            "0.000213 * s:p1 slot_end E=8 token=11680 w=1460 rtt_m=52000 f=4\n");
}

TEST(TraceTest, DirectGrantEventRendersExactLine) {
  TracedDumbbell d;
  Port* port = Network::FindPort(d.s, d.b);

  FlightEvent e = ControlFlightEvent(FlightEventType::kTokenGrant, d.s->id(),
                                     port->index(), 3);
  e.time = Microseconds(201);
  e.a = 2920;
  e.b = -1460;  // the arbiter counter legitimately goes negative (debt)
  EXPECT_EQ(RenderLine(d.net, e), "0.000201 * s:p1 grant w=2920 ctr=-1460 f=3\n");
}

TEST(TraceTest, DirectProbeEventIsPortlessAndRendersAttempt) {
  TracedDumbbell d;

  FlightEvent e = ControlFlightEvent(FlightEventType::kProbeSend, d.a->id(), -1, 2);
  e.time = Microseconds(100);
  e.seq = 0;
  e.a = 1;
  EXPECT_EQ(RenderLine(d.net, e), "0.000100 * a probe seq=0 attempt=1 f=2\n");
}

TEST(TraceTest, DirectWipeEventHasNoFlow) {
  TracedDumbbell d;
  Port* port = Network::FindPort(d.s, d.a);

  FlightEvent e = ControlFlightEvent(FlightEventType::kAgentWipe, d.s->id(),
                                     port->index(), -1);
  e.time = Milliseconds(10);
  e.a = 1;
  EXPECT_EQ(RenderLine(d.net, e), "0.010000 * s:p0 wipe n=1\n");
}

// An unknown node id (offline dump with a truncated name table) falls back
// to "n<id>" instead of crashing or printing garbage.
TEST(TraceTest, UnknownNodeIdRendersFallbackName) {
  FlightDump dump;  // empty name table
  std::ostringstream out;
  FlightEvent e = ControlFlightEvent(FlightEventType::kLinkDown, 5, 2, -1);
  e.time = Microseconds(1);
  WriteFlightEventLine(out, e, dump.NodeName(e.node));
  EXPECT_EQ(out.str(), "0.000001 * n5:p2 link_down\n");
}

// A live TFC run records the control-plane events in the ring: grants,
// slot begin/end pairs, and the senders' probe/rma pairs.
TEST(TraceTest, TfcRunEmitsControlPlaneEvents) {
  TracedDumbbell d;
  InstallTfcSwitches(d.net, TfcSwitchConfig());

  TfcSender flow(&d.net, d.a, d.b, TfcHostConfig());
  flow.Write(200'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  EXPECT_EQ(flow.delivered_bytes(), 200'000u);
  const EventCounts n = CountEvents(d.net);
  EXPECT_GT(n.control, 0u);
  EXPECT_GT(n[FlightEventType::kProbeSend], 0u);
  EXPECT_GT(n[FlightEventType::kRmaReceive], 0u);
  EXPECT_GT(n[FlightEventType::kDelimiterAdopt], 0u);
  EXPECT_GT(n[FlightEventType::kSlotBegin], 0u);
  EXPECT_GT(n[FlightEventType::kSlotEnd], 0u);
  EXPECT_GT(n[FlightEventType::kAgentConverge], 0u);
  // Slots alternate begin/end: every end had a begin.
  EXPECT_GE(n[FlightEventType::kSlotBegin], n[FlightEventType::kSlotEnd]);
}

TEST(TraceTest, DropAccountingUnderFullBuffer) {
  // A buffer of two frames forces sustained tail drops at the bottleneck.
  LinkOptions opts;
  opts.switch_buffer_bytes = 2 * 1518;
  TracedDumbbell d(opts);
  Host* a2 = d.net.AddHost("a2");
  d.net.Link(a2, d.s, kGbps, Microseconds(5), opts);
  d.net.BuildRoutes();

  TcpSender f1(&d.net, d.a, d.b, TransportConfig());
  TcpSender f2(&d.net, a2, d.b, TransportConfig());
  f1.Write(1'000'000);
  f2.Write(1'000'000);
  f1.Start();
  f2.Start();
  d.net.scheduler().RunUntil(Milliseconds(5));  // mid-transfer
  ASSERT_LT(f1.delivered_bytes() + f2.delivered_bytes(), 2'000'000u);

  uint64_t port_drops = 0;
  for (const auto& node : d.net.nodes()) {
    for (const auto& port : node->ports()) {
      port_drops += port->drops();
    }
  }
  const EventCounts n = CountEvents(d.net);
  EXPECT_GT(n[FlightEventType::kDrop], 0u);
  // Every drop anywhere is traced exactly once...
  EXPECT_EQ(n[FlightEventType::kDrop], port_drops);
  // ...and drops never show up as enqueues: what entered a queue either
  // left it onto the wire or still waits in some queue right now.
  const uint64_t waiting = WaitingPackets(d.net);
  EXPECT_GT(waiting, 0u);
  EXPECT_EQ(n[FlightEventType::kEnqueue], n[FlightEventType::kTransmit] + waiting);
}

TEST(TraceTest, DisarmedRingRecordsNothing) {
  TracedDumbbell d;
  d.net.flight().Disarm();
  EXPECT_FALSE(d.net.TraceActive());
  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  flow.Write(100'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();
  EXPECT_EQ(flow.delivered_bytes(), 100'000u);
  EXPECT_EQ(d.net.flight().recorded(), 0u);
}

}  // namespace
}  // namespace tfc
