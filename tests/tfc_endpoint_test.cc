// White/grey-box tests of the TFC end-host endpoints: round-mark (RM/RMA)
// sequencing on the wire, the window-acquisition probe, weight stamping,
// and receiver ACK decoration.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"
#include "src/workload/persistent_flow.h"

namespace tfc {
namespace {

// Wraps the real TFC agent and records every data packet seen on the
// egress, so tests can inspect the on-the-wire RM sequence.
class SpyAgent : public PortAgent {
 public:
  SpyAgent(std::unique_ptr<PortAgent> inner) : inner_(std::move(inner)) {}

  void OnEgress(Packet& pkt) override {
    if (pkt.is_data()) {
      Seen s;
      s.flow = pkt.flow_id;
      s.rm = pkt.rm;
      s.payload = pkt.payload;
      s.weight = pkt.weight;
      s.type = pkt.type;
      seen.push_back(s);
    }
    if (inner_ != nullptr) {
      inner_->OnEgress(pkt);
    }
  }
  bool OnReverse(PacketPtr& pkt) override {
    return inner_ == nullptr ? true : inner_->OnReverse(pkt);
  }

  struct Seen {
    int flow;
    bool rm;
    uint32_t payload;
    uint8_t weight;
    PacketType type;
  };
  std::vector<Seen> seen;

 private:
  std::unique_ptr<PortAgent> inner_;
};

struct Rig {
  Network net{5};
  StarTopology topo;
  SpyAgent* spy = nullptr;

  Rig() : topo(BuildStar(net, 3, LinkOptions(), kGbps, Microseconds(20))) {
    InstallTfcSwitches(net);
    Port* egress = Network::FindPort(topo.sw, topo.hosts[0]);
    // Replace the installed agent with a wrapped one. The installed agent
    // goes first: a metric name has one owner at a time.
    egress->set_agent(nullptr);
    auto inner = std::make_unique<TfcPortAgent>(topo.sw, egress, TfcSwitchConfig());
    auto wrapper = std::make_unique<SpyAgent>(std::move(inner));
    spy = wrapper.get();
    egress->set_agent(std::move(wrapper));
  }
};

TEST(TfcEndpointTest, WireSequenceStartsSynProbeMarkedData) {
  Rig rig;
  TfcSender flow(&rig.net, rig.topo.hosts[1], rig.topo.hosts[0], TfcHostConfig());
  flow.Write(10 * kMssBytes);
  flow.Start();
  rig.net.scheduler().RunUntil(Milliseconds(5));

  ASSERT_GE(rig.spy->seen.size(), 3u);
  // SYN carries the round mark (Fig. 2's "marked SYN").
  EXPECT_EQ(rig.spy->seen[0].type, PacketType::kSyn);
  EXPECT_TRUE(rig.spy->seen[0].rm);
  // Then the zero-payload acquisition probe, marked.
  EXPECT_EQ(rig.spy->seen[1].type, PacketType::kData);
  EXPECT_EQ(rig.spy->seen[1].payload, 0u);
  EXPECT_TRUE(rig.spy->seen[1].rm);
  // Then the first real data packet, marked (window just acquired).
  EXPECT_EQ(rig.spy->seen[2].type, PacketType::kData);
  EXPECT_GT(rig.spy->seen[2].payload, 0u);
  EXPECT_TRUE(rig.spy->seen[2].rm);
}

TEST(TfcEndpointTest, ExactlyOneRoundMarkPerWindow) {
  Rig rig;
  PersistentFlow flow(std::make_unique<TfcSender>(&rig.net, rig.topo.hosts[1],
                                                  rig.topo.hosts[0], TfcHostConfig()));
  flow.Start();
  rig.net.scheduler().RunUntil(Milliseconds(50));

  // Steady state: count data packets between consecutive round marks; the
  // gaps must be stable (one mark per window of packets) and positive.
  std::vector<size_t> mark_positions;
  for (size_t i = 0; i < rig.spy->seen.size(); ++i) {
    if (rig.spy->seen[i].rm && rig.spy->seen[i].payload > 0) {
      mark_positions.push_back(i);
    }
  }
  ASSERT_GT(mark_positions.size(), 20u);
  // Skip the convergence prefix; check the last 10 gaps.
  std::vector<size_t> gaps;
  for (size_t i = mark_positions.size() - 10; i < mark_positions.size(); ++i) {
    gaps.push_back(mark_positions[i] - mark_positions[i - 1]);
  }
  for (size_t g : gaps) {
    EXPECT_GE(g, 1u);
    EXPECT_LE(g, 16u);  // window is a handful of packets at this BDP
  }
  // Gaps are near-constant in steady state (within one packet).
  const size_t g0 = gaps.back();
  for (size_t g : gaps) {
    EXPECT_NEAR(static_cast<double>(g), static_cast<double>(g0), 1.01);
  }
}

TEST(TfcEndpointTest, WeightIsStampedOnDataAndProbe) {
  Rig rig;
  TfcHostConfig config;
  config.weight = 3;
  TfcSender flow(&rig.net, rig.topo.hosts[1], rig.topo.hosts[0], config);
  flow.Write(5 * kMssBytes);
  flow.Start();
  rig.net.scheduler().RunUntil(Milliseconds(5));

  int data_seen = 0;
  for (const auto& s : rig.spy->seen) {
    if (s.type == PacketType::kData) {
      EXPECT_EQ(s.weight, 3);
      ++data_seen;
    }
  }
  EXPECT_GT(data_seen, 2);
}

TEST(TfcEndpointTest, ProbeRetriedWhenUnansweredAndFlowRecovers) {
  // Black-hole the data direction after the SYN passes but before the probe
  // arrives: the probe vanishes, the sender must retry it on its timer, and
  // once the path heals the flow completes normally.
  Network net(5);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* sw = net.AddSwitch("sw");
  net.Link(a, sw, kGbps, Microseconds(5));
  net.Link(sw, b, kGbps, Microseconds(5));
  net.BuildRoutes();
  InstallTfcSwitches(net);
  Port* egress = Network::FindPort(sw, b);
  const Bytes original_limit = egress->buffer_limit();

  TfcSender flow(&net, a, b, TfcHostConfig());
  flow.Write(kMssBytes);
  flow.Start();
  net.scheduler().RunUntil(Microseconds(25));  // SYN delivered, SYNACK under way
  egress->set_buffer_limit(10);                // probe will be dropped

  net.scheduler().RunUntil(Seconds(1));
  ASSERT_EQ(flow.state(), ReliableSender::State::kEstablished);
  EXPECT_FALSE(flow.window_acquired());
  EXPECT_GT(flow.probes_sent(), 1u);  // retried at least once
  // The retry timer sends every re-probe: a second of lost probes never
  // waits for the RTO.
  EXPECT_EQ(flow.probes_sent(), 1 + flow.probe_retries());

  egress->set_buffer_limit(original_limit);  // heal the path
  net.scheduler().RunUntil(Seconds(5));
  EXPECT_TRUE(flow.window_acquired());
  EXPECT_EQ(flow.delivered_bytes(), static_cast<uint64_t>(kMssBytes));
}

TEST(TfcEndpointTest, LostProbesAndRmaRecoverByBackoffWellBeforeRto) {
  // Kill the first two acquisition probes on the sender's wire and the first
  // RMA on the receiver's wire. The backoff timer (base 2 ms, doubling,
  // jittered) must re-probe through all three losses and acquire the window
  // long before the 200 ms RTO safety net would have acted.
  Network net(5);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* sw = net.AddSwitch("sw");
  net.Link(a, sw, kGbps, Microseconds(5));
  net.Link(sw, b, kGbps, Microseconds(5));
  net.BuildRoutes();
  InstallTfcSwitches(net);
  FaultInjector inject(&net, 2);
  inject.DropMatching(a->nic(), [budget = 2](const Packet& pkt) mutable {
    const bool probe = pkt.type == PacketType::kData && pkt.payload == 0 && pkt.rm;
    return probe && budget-- > 0;
  });
  inject.DropMatching(b->nic(), [budget = 1](const Packet& pkt) mutable {
    return pkt.is_ack() && pkt.rma && budget-- > 0;
  });

  TfcSender flow(&net, a, b, TfcHostConfig());
  flow.Write(4 * kMssBytes);
  flow.Close();
  flow.Start();

  // Probe 1 lost, retry ~2-2.5 ms; probe 2 lost, retry ~4-5 ms; probe 3's
  // RMA lost, retry ~8-10 ms; probe 4 completes the acquisition. Budget
  // 60 ms covers all four rounds with jitter, still a third of one RTO.
  net.scheduler().RunUntil(Milliseconds(60));
  EXPECT_TRUE(flow.window_acquired());
  EXPECT_GE(flow.probe_retries(), 3u);
  EXPECT_EQ(inject.filtered_drops(), 3u);

  net.scheduler().RunUntil(Seconds(1));
  EXPECT_EQ(flow.delivered_bytes(), 4u * kMssBytes);
  EXPECT_EQ(flow.state(), ReliableSender::State::kClosed);
}

TEST(TfcEndpointTest, ReceiverEchoesWindowOnlyOnRma) {
  // Drive a TfcReceiver directly and inspect the ACKs it hands to the host.
  Network net(5);
  Host* sender_host = net.AddHost("snd");
  Host* receiver_host = net.AddHost("rcv");
  net.Link(sender_host, receiver_host, kGbps, Microseconds(1));
  net.BuildRoutes();

  // Capture ACKs arriving back at the sender host.
  struct AckSink : Endpoint {
    std::vector<PacketPtr> acks;
    void OnReceive(PacketPtr pkt) override { acks.push_back(std::move(pkt)); }
  } sink;
  sender_host->RegisterEndpoint(42, &sink);

  TfcReceiver receiver(&net, receiver_host, 42, /*advertised_window=*/1 << 20);

  PacketPtr data = net.AllocatePacket();
  data->flow_id = 42;
  data->src = sender_host->id();
  data->dst = receiver_host->id();
  data->type = PacketType::kData;
  data->payload = kMssBytes;
  data->seq = 0;
  data->rm = true;
  data->window = 5000;  // as stamped by switches
  receiver_host->Receive(std::move(data), nullptr);

  PacketPtr plain = net.AllocatePacket();
  plain->flow_id = 42;
  plain->src = sender_host->id();
  plain->dst = receiver_host->id();
  plain->type = PacketType::kData;
  plain->payload = kMssBytes;
  plain->seq = kMssBytes;
  plain->rm = false;
  plain->window = 7777;
  receiver_host->Receive(std::move(plain), nullptr);

  net.scheduler().Run();
  ASSERT_EQ(sink.acks.size(), 2u);
  EXPECT_TRUE(sink.acks[0]->rma);
  EXPECT_EQ(sink.acks[0]->window, 5000u);  // echoed switch allocation
  EXPECT_FALSE(sink.acks[1]->rma);
  EXPECT_EQ(sink.acks[1]->window, kWindowInfinite);  // no allocation carried

  sender_host->UnregisterEndpoint(42);
}

TEST(TfcEndpointTest, ReceiverCapsEchoedWindowAtAdvertisedWindow) {
  Network net(5);
  Host* sender_host = net.AddHost("snd");
  Host* receiver_host = net.AddHost("rcv");
  net.Link(sender_host, receiver_host, kGbps, Microseconds(1));
  net.BuildRoutes();
  struct AckSink : Endpoint {
    std::vector<PacketPtr> acks;
    void OnReceive(PacketPtr pkt) override { acks.push_back(std::move(pkt)); }
  } sink;
  sender_host->RegisterEndpoint(43, &sink);
  TfcReceiver receiver(&net, receiver_host, 43, /*advertised_window=*/4000);

  PacketPtr data = net.AllocatePacket();
  data->flow_id = 43;
  data->src = sender_host->id();
  data->dst = receiver_host->id();
  data->type = PacketType::kData;
  data->payload = 100;
  data->rm = true;
  data->window = 50'000;  // network allows more than the receiver does
  receiver_host->Receive(std::move(data), nullptr);
  net.scheduler().Run();

  ASSERT_EQ(sink.acks.size(), 1u);
  EXPECT_EQ(sink.acks[0]->window, 4000u);
  sender_host->UnregisterEndpoint(43);
}

TEST(TfcEndpointTest, SynAckDoesNotGrantAWindow) {
  Rig rig;
  TfcSender flow(&rig.net, rig.topo.hosts[1], rig.topo.hosts[0], TfcHostConfig());
  flow.Write(kMssBytes);
  flow.Start();
  // Run just past the SYN/SYNACK exchange but before the probe's RMA.
  rig.net.scheduler().RunUntil(Microseconds(120));
  EXPECT_EQ(flow.state(), ReliableSender::State::kEstablished);
  EXPECT_FALSE(flow.window_acquired());
}

TEST(TfcEndpointTest, ResumeProbeDisabledKeepsStaleWindow) {
  Network net(5);
  StarTopology topo = BuildStar(net, 3, LinkOptions(), kGbps, Microseconds(20));
  InstallTfcSwitches(net);
  TfcHostConfig config;
  config.resume_probe = false;
  auto sender = std::make_unique<TfcSender>(&net, topo.hosts[1], topo.hosts[0], config);
  TfcSender* raw = sender.get();
  PersistentFlow flow(std::move(sender));
  flow.Start();
  net.scheduler().RunUntil(Milliseconds(20));
  const uint64_t probes = raw->probes_sent();
  flow.SetActive(false);
  net.scheduler().RunUntil(Milliseconds(40));
  flow.SetActive(true);
  net.scheduler().RunUntil(Milliseconds(41));
  EXPECT_EQ(raw->probes_sent(), probes);  // paper-faithful: no re-probe
  EXPECT_TRUE(raw->window_acquired());
}

}  // namespace
}  // namespace tfc
