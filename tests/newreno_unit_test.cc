// Precise NewReno state-machine tests: a scripted fake receiver replaces
// the real one so tests control the exact ACK stream the sender sees —
// dup-ACK thresholds, window inflation/deflation, partial ACKs, recovery
// exit, and RTO backoff are asserted against hand-computed values.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/tcp/tcp.h"
#include "src/topo/topologies.h"

namespace tfc {
namespace {

// Captures data packets and sends only the ACKs the test scripts.
class ScriptedReceiver : public Endpoint {
 public:
  ScriptedReceiver(Network* net, Host* local) : net_(net), local_(local) {}

  void OnReceive(PacketPtr pkt) override {
    if (pkt->type == PacketType::kSyn) {
      Reply(*pkt, PacketType::kSynAck, 0);
      return;
    }
    received.push_back(std::move(pkt));
  }

  // Sends a cumulative ACK with the given ack value (echoing the timestamp
  // of the most recent data packet so RTT sampling keeps working).
  void Ack(uint64_t ack_value) {
    TFC_CHECK(!received.empty());
    Reply(*received.back(), PacketType::kAck, ack_value);
  }

  std::vector<PacketPtr> received;

 private:
  void Reply(const Packet& cause, PacketType type, uint64_t ack_value) {
    PacketPtr ack = net_->AllocatePacket();
    ack->flow_id = cause.flow_id;
    ack->src = local_->id();
    ack->dst = cause.src;
    ack->type = type;
    ack->ack = ack_value;
    ack->ts_echo = cause.ts;
    ack->window = kWindowInfinite;
    local_->Send(std::move(ack));
  }

  Network* net_;
  Host* local_;
};

class NewRenoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<Network>(3);
    a_ = net_->AddHost("a");
    b_ = net_->AddHost("b");
    net_->Link(a_, b_, kGbps, Microseconds(5));
    net_->BuildRoutes();

    TransportConfig cfg;
    cfg.rto_min = Milliseconds(10);
    sender_ = std::make_unique<TcpSender>(net_.get(), a_, b_, cfg);
    // Swap the real receiver for the scripted one.
    fake_ = std::make_unique<ScriptedReceiver>(net_.get(), b_);
    b_->UnregisterEndpoint(sender_->flow_id());
    b_->RegisterEndpoint(sender_->flow_id(), fake_.get());

    sender_->Write(1'000'000);
    sender_->Start();
    Drain();  // SYN -> SYNACK -> initial window of data
    ASSERT_EQ(sender_->state(), ReliableSender::State::kEstablished);
  }

  void TearDown() override {
    // Restore the original registration so teardown order stays clean.
    b_->UnregisterEndpoint(sender_->flow_id());
    b_->RegisterEndpoint(sender_->flow_id(), &sender_->receiver());
  }

  // Runs until the network is quiet (all in-flight packets delivered) but
  // stops before the retransmission timer would fire.
  void Drain() {
    const TimeNs guard = net_->scheduler().now() + Milliseconds(5);
    net_->scheduler().RunUntil(guard);
  }

  double mss() const { return kMssBytes; }

  std::unique_ptr<Network> net_;
  Host* a_ = nullptr;
  Host* b_ = nullptr;
  std::unique_ptr<TcpSender> sender_;
  std::unique_ptr<ScriptedReceiver> fake_;
};

TEST_F(NewRenoTest, InitialWindowSendsThreeSegments) {
  EXPECT_EQ(fake_->received.size(), 3u);
  EXPECT_EQ(fake_->received[0]->seq, 0u);
  EXPECT_EQ(fake_->received[1]->seq, 1460u);
  EXPECT_EQ(fake_->received[2]->seq, 2920u);
}

TEST_F(NewRenoTest, SlowStartGrowsByAckedBytes) {
  const double before = sender_->cwnd_bytes();
  fake_->Ack(1460);
  Drain();
  EXPECT_DOUBLE_EQ(sender_->cwnd_bytes(), before + 1460.0);
}

TEST_F(NewRenoTest, TwoDupAcksDoNotTriggerRetransmit) {
  fake_->Ack(1460);
  Drain();
  const size_t sent = fake_->received.size();
  fake_->Ack(1460);  // dup 1
  fake_->Ack(1460);  // dup 2
  Drain();
  // No retransmission of seq 1460 appeared.
  for (size_t i = sent; i < fake_->received.size(); ++i) {
    EXPECT_NE(fake_->received[i]->seq, 1460u);
  }
  EXPECT_EQ(sender_->stats().retransmits, 0u);
}

TEST_F(NewRenoTest, ThirdDupAckTriggersFastRetransmitAndHalvesWindow) {
  fake_->Ack(1460);
  Drain();
  const Bytes inflight = sender_->inflight_bytes();
  for (int i = 0; i < 3; ++i) {
    fake_->Ack(1460);
  }
  const size_t sent_before = fake_->received.size();
  Drain();
  EXPECT_EQ(sender_->stats().retransmits, 1u);
  // The hole at snd_una was retransmitted (new segments may follow under
  // the inflated window).
  bool hole_resent = false;
  for (size_t i = sent_before; i < fake_->received.size(); ++i) {
    hole_resent |= fake_->received[i]->seq == 1460u;
  }
  EXPECT_TRUE(hole_resent);
  // ssthresh = max(flight/2, 2*MSS); cwnd = ssthresh + 3*MSS.
  const double expect_ssthresh = std::max(static_cast<double>(inflight) / 2.0, 2 * mss());
  EXPECT_DOUBLE_EQ(sender_->ssthresh_bytes(), expect_ssthresh);
  EXPECT_DOUBLE_EQ(sender_->cwnd_bytes(), expect_ssthresh + 3 * mss());
  EXPECT_EQ(sender_->stats().timeouts, 0u);
}

TEST_F(NewRenoTest, FullAckExitsRecoveryAtSsthresh) {
  fake_->Ack(1460);
  Drain();
  for (int i = 0; i < 3; ++i) {
    fake_->Ack(1460);
  }
  Drain();
  const double ssthresh = sender_->ssthresh_bytes();
  // Acknowledge everything sent so far: recovery completes.
  uint64_t highest = 0;
  for (const auto& p : fake_->received) {
    highest = std::max(highest, p->seq + p->payload);
  }
  fake_->Ack(highest);
  Drain();
  EXPECT_GE(sender_->cwnd_bytes(), ssthresh);  // deflated to ssthresh, then grew
  EXPECT_LE(sender_->cwnd_bytes(), ssthresh + 2 * mss());
}

TEST_F(NewRenoTest, PartialAckRepairsNextHoleWithoutLeavingRecovery) {
  // Build up a larger flight first.
  fake_->Ack(1460);
  fake_->Ack(2920);
  fake_->Ack(4380);
  Drain();
  // Now three dups at 4380: enter recovery.
  for (int i = 0; i < 3; ++i) {
    fake_->Ack(4380);
  }
  Drain();
  ASSERT_EQ(sender_->stats().retransmits, 1u);
  // A partial ACK (one segment forward, still below the recovery point)
  // must immediately retransmit the next hole.
  const size_t sent_before = fake_->received.size();
  fake_->Ack(4380 + 1460);
  Drain();
  EXPECT_EQ(sender_->stats().retransmits, 2u);
  bool hole_resent = false;
  for (size_t i = sent_before; i < fake_->received.size(); ++i) {
    hole_resent |= fake_->received[i]->seq == 4380u + 1460u;
  }
  EXPECT_TRUE(hole_resent);
  EXPECT_EQ(sender_->stats().timeouts, 0u);
}

TEST_F(NewRenoTest, RtoBacksOffExponentially) {
  // Never ACK anything beyond the handshake: RTOs fire at rto, 2*rto, ...
  std::vector<TimeNs> timeout_times;
  const TimeNs start = net_->scheduler().now();
  uint64_t last_count = 0;
  for (int step = 0; step < 2000 && timeout_times.size() < 4; ++step) {
    net_->scheduler().RunUntil(start + step * Milliseconds(1));
    if (sender_->stats().timeouts > last_count) {
      last_count = sender_->stats().timeouts;
      timeout_times.push_back(net_->scheduler().now());
    }
  }
  ASSERT_GE(timeout_times.size(), 3u);
  const double gap1 = ToSeconds(timeout_times[1] - timeout_times[0]);
  const double gap2 = ToSeconds(timeout_times[2] - timeout_times[1]);
  EXPECT_NEAR(gap2 / gap1, 2.0, 0.3);  // doubling, +- sampling granularity
  EXPECT_DOUBLE_EQ(sender_->cwnd_bytes(), mss());  // collapsed to one segment
}

TEST_F(NewRenoTest, CongestionAvoidanceGrowsOneMssPerWindow) {
  // Force congestion avoidance by setting up a loss first.
  fake_->Ack(1460);
  Drain();
  for (int i = 0; i < 3; ++i) {
    fake_->Ack(1460);
  }
  Drain();
  uint64_t highest = 0;
  for (const auto& p : fake_->received) {
    highest = std::max(highest, p->seq + p->payload);
  }
  fake_->Ack(highest);
  Drain();
  // Now in congestion avoidance at cwnd == ssthresh(+growth). Acking one
  // full window must grow cwnd by ~one MSS.
  const double cwnd = sender_->cwnd_bytes();
  uint64_t acked = highest;
  double expected_growth = 0;
  while (acked < highest + static_cast<uint64_t>(cwnd)) {
    acked += 1460;
    expected_growth += mss() * 1460.0 / cwnd;  // per-ack increment (approx)
    fake_->Ack(acked);
  }
  Drain();
  EXPECT_NEAR(sender_->cwnd_bytes() - cwnd, mss(), mss() * 0.35);
}

}  // namespace
}  // namespace tfc
