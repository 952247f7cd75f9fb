// End-to-end tests of the reliable transport machinery (using TcpSender as
// the concrete protocol): handshakes, delivery, retransmission, persistent
// connections, and conservation invariants.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/net/network.h"
#include "src/tcp/tcp.h"

namespace tfc {
namespace {

struct Dumbbell {
  Network net;
  Host* a;
  Host* b;
  Switch* s;

  explicit Dumbbell(LinkOptions opts = LinkOptions(), BitsPerSec bps = kGbps,
                    TimeNs delay = Microseconds(5))
      : net(7) {
    a = net.AddHost("a");
    b = net.AddHost("b");
    s = net.AddSwitch("s");
    net.Link(a, s, bps, delay, opts);
    net.Link(s, b, bps, delay, opts);
    net.BuildRoutes();
  }
};

TEST(TransportTest, TransfersExactByteCount) {
  Dumbbell d;
  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  bool completed = false;
  flow.on_complete = [&] { completed = true; };
  flow.Write(1'000'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  EXPECT_TRUE(completed);
  EXPECT_EQ(flow.delivered_bytes(), 1'000'000u);
  EXPECT_EQ(flow.acked_bytes(), 1'000'000u);
  EXPECT_EQ(flow.state(), ReliableSender::State::kClosed);
  EXPECT_GT(flow.stats().fct(), 0);
}

TEST(TransportTest, ZeroByteFlowCompletesViaHandshakeOnly) {
  Dumbbell d;
  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  bool completed = false;
  flow.on_complete = [&] { completed = true; };
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(flow.stats().data_packets_sent, 0u);
}

TEST(TransportTest, LargeTransferApproachesLineRate) {
  Dumbbell d;
  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  const uint64_t bytes = 20'000'000;
  flow.Write(bytes);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  const double rate = static_cast<double>(bytes) * 8.0 / ToSeconds(flow.stats().fct());
  // Payload efficiency of a 1 Gbps link is 1460/1538 = 94.9%.
  EXPECT_GT(rate, 0.85e9);
  EXPECT_LT(rate, 0.95e9);
}

TEST(TransportTest, PersistentConnectionFiresDrainedPerRound) {
  Dumbbell d;
  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  int drains = 0;
  flow.on_drained = [&] {
    if (++drains < 5) {
      flow.Write(100'000);
    }
  };
  flow.Write(100'000);
  flow.Start();
  d.net.scheduler().Run();
  EXPECT_EQ(drains, 5);
  EXPECT_EQ(flow.delivered_bytes(), 500'000u);
}

TEST(TransportTest, RecoversFromLossAndStillDeliversEverything) {
  // Two senders converging on one egress with a tiny buffer force drops;
  // a single flow cannot congest the equal-rate dumbbell (the NIC paces it).
  LinkOptions opts;
  opts.switch_buffer_bytes = 8 * 1518;
  Network net(19);
  Host* a1 = net.AddHost("a1");
  Host* a2 = net.AddHost("a2");
  Host* b = net.AddHost("b");
  Switch* s = net.AddSwitch("s");
  net.Link(a1, s, kGbps, Microseconds(5), opts);
  net.Link(a2, s, kGbps, Microseconds(5), opts);
  net.Link(s, b, kGbps, Microseconds(5), opts);
  net.BuildRoutes();

  TcpSender f1(&net, a1, b, TransportConfig());
  TcpSender f2(&net, a2, b, TransportConfig());
  for (TcpSender* f : {&f1, &f2}) {
    f->Write(5'000'000);
    f->Close();
    f->Start();
  }
  net.scheduler().Run();

  EXPECT_EQ(f1.delivered_bytes(), 5'000'000u);
  EXPECT_EQ(f2.delivered_bytes(), 5'000'000u);
  EXPECT_EQ(f1.state(), ReliableSender::State::kClosed);
  EXPECT_GT(f1.stats().retransmits + f2.stats().retransmits, 0u);
  Port* bottleneck = Network::FindPort(s, b);
  EXPECT_GT(bottleneck->drops(), 0u);
}

TEST(TransportTest, ByteConservationAcrossTheBottleneck) {
  LinkOptions opts;
  opts.switch_buffer_bytes = 16 * 1518;
  Dumbbell d(opts);
  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  flow.Write(3'000'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  // Every data frame entering the bottleneck either was transmitted or
  // dropped; transmitted minus duplicates equals delivered payload.
  Port* nic = d.a->nic();
  Port* bottleneck = Network::FindPort(d.s, d.b);
  EXPECT_EQ(nic->tx_packets(), bottleneck->tx_packets() + bottleneck->drops());
  EXPECT_EQ(flow.delivered_bytes(), 3'000'000u);
}

TEST(TransportTest, RtoFiresWhenPathIsDead) {
  // Receiver host with a zero-capacity path: emulate by dropping everything
  // at an absurdly small switch buffer (even one frame doesn't fit).
  LinkOptions opts;
  opts.switch_buffer_bytes = 10;  // nothing fits: all data dropped at switch
  Dumbbell d(opts);
  TransportConfig cfg;
  cfg.rto_min = Milliseconds(10);
  TcpSender flow(&d.net, d.a, d.b, cfg);
  flow.Write(10'000);
  flow.Start();
  d.net.scheduler().RunUntil(Seconds(3.0));

  // Exponential backoff: fires at ~0.2, 0.6, 1.4, 3.0 s.
  EXPECT_GE(flow.stats().timeouts, 3u);
  EXPECT_EQ(flow.delivered_bytes(), 0u);
}

TEST(TransportTest, RttEstimateTracksPathRtt) {
  Dumbbell d;
  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  flow.Write(1'000'000);
  flow.Close();
  flow.Start();
  d.net.scheduler().Run();

  // Base RTT: 4 serializations (2 data, 2 ack hops) + 4 propagations + queue.
  // With queueing it can only be larger than the bare minimum.
  EXPECT_GT(flow.srtt(), Microseconds(30));
  EXPECT_LT(flow.srtt(), Milliseconds(5));
}

TEST(TransportTest, TwoFlowsShareBottleneckAndBothFinish) {
  Dumbbell d;
  TcpSender f1(&d.net, d.a, d.b, TransportConfig());
  TcpSender f2(&d.net, d.a, d.b, TransportConfig());
  f1.Write(5'000'000);
  f1.Close();
  f2.Write(5'000'000);
  f2.Close();
  f1.Start();
  f2.Start();
  d.net.scheduler().Run();
  EXPECT_EQ(f1.delivered_bytes(), 5'000'000u);
  EXPECT_EQ(f2.delivered_bytes(), 5'000'000u);
}

TEST(TransportTest, SynRetransmittedWhenLost) {
  LinkOptions opts;
  opts.switch_buffer_bytes = 10;  // drops the SYN too
  Dumbbell d(opts);
  TransportConfig cfg;
  cfg.rto_min = Milliseconds(10);
  TcpSender flow(&d.net, d.a, d.b, cfg);
  flow.Start();
  d.net.scheduler().RunUntil(Milliseconds(700));
  EXPECT_EQ(flow.state(), ReliableSender::State::kSynSent);
  EXPECT_GT(flow.stats().timeouts, 0u);
}

TEST(TransportTest, DeliveredBytesReachLineRateInSomeWindow) {
  Dumbbell d;
  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  flow.Write(10'000'000);
  flow.Close();
  flow.Start();
  // Goodput of each 10 ms window of the first 100 ms.
  double max_bps = 0;
  Bytes last = 0;
  for (int64_t i = 1; i <= 10; ++i) {
    d.net.scheduler().RunUntil(Milliseconds(10) * i);
    const Bytes delivered = flow.delivered_bytes();
    max_bps = std::max(max_bps, static_cast<double>(delivered - last) * 8.0 / 0.01);
    last = delivered;
  }
  d.net.scheduler().Run();

  // After ramp-up, some window runs near line rate.
  EXPECT_GT(max_bps, 0.9e9);
}

}  // namespace
}  // namespace tfc
