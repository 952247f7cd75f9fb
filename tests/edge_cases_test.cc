// Assorted edge cases across layers: speed mismatches, flow-control
// limits, queue sampling, and boundary conditions that integration
// scenarios don't isolate.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/sim/stats.h"
#include "src/sim/telemetry.h"
#include "src/tcp/tcp.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"
#include "src/workload/incast.h"

namespace tfc {
namespace {

TEST(SpeedMismatchTest, FastToSlowQueuesAtTheSlowPort) {
  // 10G ingress feeding a 1G egress: the switch's slow port queues; with a
  // window-limited sender the queue is bounded by the window.
  Network net(91);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* s = net.AddSwitch("s");
  net.Link(a, s, 10 * kGbps, Microseconds(5));
  net.Link(s, b, kGbps, Microseconds(5));
  net.BuildRoutes();

  TransportConfig cfg;
  cfg.receive_window = 64 * 1024;  // caps inflight
  TcpSender flow(&net, a, b, cfg);
  flow.Write(10'000'000);
  flow.Close();
  flow.Start();
  net.scheduler().Run();

  EXPECT_EQ(flow.delivered_bytes(), 10'000'000u);
  Port* slow = Network::FindPort(s, b);
  EXPECT_EQ(slow->drops(), 0u);
  // Queue bounded by the 64 KB window (plus headers).
  EXPECT_LE(slow->max_queue_bytes(), 70'000u);
}

TEST(SpeedMismatchTest, SlowToFastNeverQueues) {
  Network net(92);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* s = net.AddSwitch("s");
  net.Link(a, s, kGbps, Microseconds(5));
  net.Link(s, b, 10 * kGbps, Microseconds(5));
  net.BuildRoutes();
  TcpSender flow(&net, a, b, TransportConfig());
  flow.Write(5'000'000);
  flow.Close();
  flow.Start();
  net.scheduler().Run();
  EXPECT_LE(Network::FindPort(s, b)->max_queue_bytes(), 2u * kMtuFrameBytes);
}

TEST(FlowControlTest, ReceiveWindowBoundsInflight) {
  Network net(93);
  StarTopology topo = BuildStar(net, 2, LinkOptions(), kGbps, Microseconds(200));
  TransportConfig cfg;
  cfg.receive_window = 8 * 1460;  // 8 segments on a long-RTT path
  TcpSender flow(&net, topo.hosts[1], topo.hosts[0], cfg);
  flow.Write(50'000'000);
  flow.Start();
  TimeNs t = 0;
  for (int i = 0; i < 200; ++i) {
    t += Microseconds(100);
    net.scheduler().RunUntil(t);
    EXPECT_LE(flow.inflight_bytes(), 8u * 1460u);
  }
}

TEST(FlowControlTest, ThroughputIsWindowOverRtt) {
  // With cwnd pinned by the receive window well below BDP, goodput must be
  // ~window/RTT — a golden check on the whole timing machinery.
  Network net(94);
  StarTopology topo = BuildStar(net, 2, LinkOptions(), kGbps, Microseconds(500));
  TransportConfig cfg;
  cfg.receive_window = 16 * 1460;
  TcpSender flow(&net, topo.hosts[1], topo.hosts[0], cfg);
  flow.Write(100'000'000);
  flow.Start();
  net.scheduler().RunUntil(Milliseconds(100));
  const uint64_t before = flow.delivered_bytes();
  net.scheduler().RunUntil(Milliseconds(600));
  const double bps = static_cast<double>(flow.delivered_bytes() - before) * 8.0 / 0.5;
  // RTT ~= 4*500us prop + serialization ~= 2.03 ms; 16*1460B/2.03ms ~= 92 Mbps.
  EXPECT_NEAR(bps, 16 * 1460 * 8 / 2.03e-3, 8e6);
}

TEST(WriteApiTest, WriteBeforeStartIsBuffered) {
  Network net(95);
  StarTopology topo = BuildStar(net, 2);
  TcpSender flow(&net, topo.hosts[1], topo.hosts[0], TransportConfig());
  flow.Write(123'456);
  flow.Close();
  flow.Start();  // everything already queued
  net.scheduler().Run();
  EXPECT_EQ(flow.delivered_bytes(), 123'456u);
  EXPECT_EQ(flow.state(), ReliableSender::State::kClosed);
}

TEST(WriteApiTest, ZeroByteWriteIsANoop) {
  Network net(96);
  StarTopology topo = BuildStar(net, 2);
  TcpSender flow(&net, topo.hosts[1], topo.hosts[0], TransportConfig());
  flow.Write(0);
  flow.Write(1000);
  flow.Write(0);
  flow.Close();
  flow.Start();
  net.scheduler().Run();
  EXPECT_EQ(flow.delivered_bytes(), 1000u);
}

TEST(IncastEdgeTest, SingleSenderSingleRound) {
  Network net(97);
  ProtocolSuite suite;
  StarTopology topo = BuildStar(net, 2);
  suite.InstallSwitchLogic(net);
  IncastConfig cfg;
  cfg.block_bytes = 64 * 1024;
  cfg.rounds = 1;
  IncastApp app(&net, suite, topo.hosts[0], {topo.hosts[1]}, cfg);
  app.Start();
  net.scheduler().RunUntil(Seconds(5));
  EXPECT_TRUE(app.finished());
  EXPECT_EQ(app.flows()[0]->delivered_bytes(), 64u * 1024u);
}

TEST(SamplerTest, RecordedQueueTracksInstantaneousDepth) {
  Network net(99);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  net.Link(a, b, kGbps, Microseconds(5));
  net.BuildRoutes();
  const std::string queue_name = a->nic()->metric_prefix() + ".queue_bytes";
  TimeSeriesRecorder recorder(&net.scheduler(), &net.metrics());
  recorder.Watch(queue_name);
  recorder.Start(Microseconds(5), /*first_delay=*/0);
  // Enqueue 10 full frames at t=0; they drain at 12.3 us each.
  for (int i = 0; i < 10; ++i) {
    PacketPtr pkt = net.AllocatePacket();
    pkt->flow_id = 1;
    pkt->src = a->id();
    pkt->dst = b->id();
    pkt->type = PacketType::kData;
    pkt->payload = kMssBytes;
    a->nic()->Enqueue(std::move(pkt));
  }
  net.scheduler().RunUntil(Milliseconds(1));
  recorder.Stop();
  const std::vector<TimeSeriesRecorder::Sample> series = recorder.Series(queue_name);
  RunningStats queue;
  for (const TimeSeriesRecorder::Sample& s : series) {
    queue.Add(s.v);
  }
  EXPECT_NEAR(queue.max(), 10.0 * 1518, 1600.0);
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.back().v, 0.0);  // drained by the end
}

TEST(TfcEdgeTest, AckOnlyReversePortNeverComputesSlots) {
  // The port carrying only ACK traffic (reverse direction) must never
  // elect a delimiter or compute windows — only data-direction ports do.
  Network net(100);
  StarTopology topo = BuildStar(net, 2, LinkOptions(), kGbps, Microseconds(20));
  InstallTfcSwitches(net);
  TfcSender flow(&net, topo.hosts[1], topo.hosts[0], TfcHostConfig());
  flow.Write(1'000'000);
  flow.Close();
  flow.Start();
  net.scheduler().Run();
  EXPECT_EQ(flow.delivered_bytes(), 1'000'000u);

  TfcPortAgent* reverse =
      TfcPortAgent::FromPort(Network::FindPort(topo.sw, topo.hosts[1]));
  EXPECT_EQ(reverse->slots_completed(), 0u);
  EXPECT_EQ(reverse->delimiter_flow(), -1);
}

TEST(TfcEdgeTest, BidirectionalFlowsEachDirectionAllocatedIndependently) {
  // Simultaneous transfers in both directions between two hosts: each
  // direction's egress port runs its own slot machinery and both reach
  // full rate (the reverse ACK streams ride along).
  Network net(101);
  StarTopology topo = BuildStar(net, 2, LinkOptions(), kGbps, Microseconds(20));
  InstallTfcSwitches(net);
  TfcSender ab(&net, topo.hosts[0], topo.hosts[1], TfcHostConfig());
  TfcSender ba(&net, topo.hosts[1], topo.hosts[0], TfcHostConfig());
  for (TfcSender* f : {&ab, &ba}) {
    f->Write(20'000'000);
    f->Close();
    f->Start();
  }
  net.scheduler().Run();
  EXPECT_EQ(ab.delivered_bytes(), 20'000'000u);
  EXPECT_EQ(ba.delivered_bytes(), 20'000'000u);
  // Both directions ~line rate: neither FCT more than ~40% above the ideal.
  const double ideal_s = 20e6 * 8 / 0.92e9;
  EXPECT_LT(ToSeconds(ab.stats().fct()), ideal_s * 1.4);
  EXPECT_LT(ToSeconds(ba.stats().fct()), ideal_s * 1.4);
}

TEST(PacketEdgeTest, MinimumFrameSizes) {
  Packet tiny;
  tiny.payload = 0;
  EXPECT_EQ(tiny.frame_bytes(), 58u);
  EXPECT_EQ(tiny.wire_bytes(), 84u);  // padded to 64 + 20 overhead
  Packet one;
  one.payload = 1;
  EXPECT_EQ(one.frame_bytes(), 59u);
  EXPECT_EQ(one.wire_bytes(), 84u);
  Packet exact;
  exact.payload = 64 - kHeaderBytes;
  EXPECT_EQ(exact.wire_bytes(), 84u);
  Packet above;
  above.payload = 64 - kHeaderBytes + 1;
  EXPECT_EQ(above.wire_bytes(), 85u);
}

}  // namespace
}  // namespace tfc
