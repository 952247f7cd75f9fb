// Direct tests of ReliableReceiver reassembly and ACK generation: segments
// arriving out of order, overlapping, duplicated, and interleaved with
// control packets.

#include <gtest/gtest.h>

#include <vector>

#include "src/net/network.h"
#include "src/transport/reliable_receiver.h"

namespace tfc {
namespace {

class ReassemblyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<Network>(3);
    snd_ = net_->AddHost("snd");
    rcv_ = net_->AddHost("rcv");
    net_->Link(snd_, rcv_, kGbps, Microseconds(1));
    net_->BuildRoutes();
    snd_->RegisterEndpoint(kFlow, &sink_);
    receiver_ = std::make_unique<ReliableReceiver>(net_.get(), rcv_, kFlow,
                                                   /*advertised_window=*/1 << 20);
    receiver_->on_deliver = [this](uint64_t n) { delivered_chunks_.push_back(n); };
  }

  void TearDown() override { snd_->UnregisterEndpoint(kFlow); }

  // Injects a data segment [seq, seq+len) directly into the receiver host.
  void Inject(uint64_t seq, uint32_t len, PacketType type = PacketType::kData) {
    PacketPtr pkt = std::make_unique<Packet>();
    pkt->uid = net_->AllocatePacketUid();
    pkt->flow_id = kFlow;
    pkt->src = snd_->id();
    pkt->dst = rcv_->id();
    pkt->type = type;
    pkt->seq = seq;
    pkt->payload = len;
    pkt->ts = net_->scheduler().now() + 1;  // nonzero for echo checks
    rcv_->Receive(std::move(pkt), nullptr);
  }

  // Drains the network and returns the ack values of all ACKs received.
  std::vector<uint64_t> DrainAcks() {
    net_->scheduler().Run();
    std::vector<uint64_t> acks;
    for (auto& p : sink_.packets) {
      acks.push_back(p->ack);
    }
    sink_.packets.clear();
    return acks;
  }

  static constexpr int kFlow = 9;

  struct Sink : Endpoint {
    void OnReceive(PacketPtr pkt) override { packets.push_back(std::move(pkt)); }
    std::vector<PacketPtr> packets;
  };

  std::unique_ptr<Network> net_;
  Host* snd_ = nullptr;
  Host* rcv_ = nullptr;
  Sink sink_;
  std::unique_ptr<ReliableReceiver> receiver_;
  std::vector<uint64_t> delivered_chunks_;
};

TEST_F(ReassemblyTest, InOrderDeliveryAcksCumulatively) {
  Inject(0, 100);
  Inject(100, 100);
  Inject(200, 50);
  Inject(200, 100);  // straddles the frontier with no stored holes
  EXPECT_EQ(DrainAcks(), (std::vector<uint64_t>{100, 200, 250, 300}));
  EXPECT_EQ(receiver_->delivered_bytes(), 300u);
}

TEST_F(ReassemblyTest, OutOfOrderHoleFillsInOneJump) {
  Inject(100, 100);  // hole at [0,100)
  Inject(200, 100);
  EXPECT_EQ(DrainAcks(), (std::vector<uint64_t>{0, 0}));  // dup ACKs at 0
  Inject(0, 100);  // plug the hole
  EXPECT_EQ(DrainAcks(), (std::vector<uint64_t>{300}));
  EXPECT_EQ(delivered_chunks_, (std::vector<uint64_t>{300}));
  Inject(300, 100);  // in order, right after the last hole closed
  EXPECT_EQ(DrainAcks(), (std::vector<uint64_t>{400}));
  EXPECT_EQ(delivered_chunks_, (std::vector<uint64_t>{300, 100}));
}

TEST_F(ReassemblyTest, DuplicateSegmentsAreIdempotent) {
  Inject(0, 100);
  Inject(0, 100);
  Inject(0, 100);
  EXPECT_EQ(DrainAcks(), (std::vector<uint64_t>{100, 100, 100}));
  EXPECT_EQ(receiver_->delivered_bytes(), 100u);
}

TEST_F(ReassemblyTest, OverlappingSegmentsMergeCorrectly) {
  Inject(50, 100);   // [50,150) buffered
  Inject(100, 100);  // [100,200) overlaps; merged to [50,200)
  Inject(0, 60);     // [0,60) bridges to the buffer
  DrainAcks();
  EXPECT_EQ(receiver_->delivered_bytes(), 200u);
}

TEST_F(ReassemblyTest, ManyInterleavedRangesEventuallyCoalesce) {
  // Even-indexed 100-byte segments first, then odd ones.
  for (uint64_t i = 0; i < 20; i += 2) {
    Inject(i * 100, 100);
  }
  DrainAcks();
  EXPECT_EQ(receiver_->delivered_bytes(), 100u);  // only segment 0 in order
  for (uint64_t i = 1; i < 20; i += 2) {
    Inject(i * 100, 100);
  }
  DrainAcks();
  EXPECT_EQ(receiver_->delivered_bytes(), 2000u);
}

TEST_F(ReassemblyTest, ZeroPayloadDataIsAckedWithoutDelivery) {
  Inject(0, 0);  // a TFC-style probe
  auto acks = DrainAcks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0], 0u);
  EXPECT_EQ(receiver_->delivered_bytes(), 0u);
  EXPECT_TRUE(delivered_chunks_.empty());
}

TEST_F(ReassemblyTest, SynGetsSynAckWithTimestampEcho) {
  Inject(0, 0, PacketType::kSyn);
  net_->scheduler().Run();
  ASSERT_EQ(sink_.packets.size(), 1u);
  EXPECT_EQ(sink_.packets[0]->type, PacketType::kSynAck);
  EXPECT_GT(sink_.packets[0]->ts_echo, 0);
}

TEST_F(ReassemblyTest, FinAckedOnlyWhenAllDataArrived) {
  Inject(0, 100);
  DrainAcks();
  Inject(200, 0, PacketType::kFin);  // premature: data [100,200) missing
  net_->scheduler().Run();
  ASSERT_EQ(sink_.packets.size(), 1u);
  EXPECT_EQ(sink_.packets[0]->type, PacketType::kAck);
  EXPECT_EQ(sink_.packets[0]->ack, 100u);
  sink_.packets.clear();

  Inject(100, 100);
  DrainAcks();
  Inject(200, 0, PacketType::kFin);
  net_->scheduler().Run();
  ASSERT_EQ(sink_.packets.size(), 1u);
  EXPECT_EQ(sink_.packets[0]->type, PacketType::kFinAck);
}

TEST_F(ReassemblyTest, EcnCeIsEchoedPerPacket) {
  PacketPtr pkt = std::make_unique<Packet>();
  pkt->flow_id = kFlow;
  pkt->src = snd_->id();
  pkt->dst = rcv_->id();
  pkt->type = PacketType::kData;
  pkt->payload = 10;
  pkt->ecn_capable = true;
  pkt->ecn_ce = true;
  rcv_->Receive(std::move(pkt), nullptr);
  net_->scheduler().Run();
  ASSERT_EQ(sink_.packets.size(), 1u);
  EXPECT_TRUE(sink_.packets[0]->ecn_echo);

  sink_.packets.clear();
  Inject(10, 10);  // unmarked
  net_->scheduler().Run();
  ASSERT_EQ(sink_.packets.size(), 1u);
  EXPECT_FALSE(sink_.packets[0]->ecn_echo);
}

TEST_F(ReassemblyTest, SegmentEntirelyBelowFrontierReAcksOnly) {
  Inject(0, 300);
  DrainAcks();
  delivered_chunks_.clear();
  Inject(100, 100);  // stale retransmission
  auto acks = DrainAcks();
  EXPECT_EQ(acks, (std::vector<uint64_t>{300}));
  EXPECT_TRUE(delivered_chunks_.empty());
}

}  // namespace
}  // namespace tfc
