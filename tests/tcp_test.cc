// TCP NewReno window-dynamics tests.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/net/network.h"
#include "src/tcp/tcp.h"
#include "src/workload/persistent_flow.h"

namespace tfc {
namespace {

struct Dumbbell {
  Network net;
  Host* a;
  Host* b;
  Switch* s;

  explicit Dumbbell(LinkOptions opts = LinkOptions()) : net(11) {
    a = net.AddHost("a");
    b = net.AddHost("b");
    s = net.AddSwitch("s");
    net.Link(a, s, kGbps, Microseconds(5), opts);
    net.Link(s, b, kGbps, Microseconds(5), opts);
    net.BuildRoutes();
  }
};

TEST(TcpTest, InitialWindowIsThreeSegments) {
  Dumbbell d;
  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  EXPECT_DOUBLE_EQ(flow.cwnd_bytes(), 3.0 * kMssBytes);
}

TEST(TcpTest, SlowStartDoublesWindowPerRtt) {
  Dumbbell d;
  TcpSender flow(&d.net, d.a, d.b, TransportConfig());
  flow.Write(50'000'000);
  flow.Start();
  // After a few RTTs of slow start with no loss, cwnd must have grown far
  // beyond the initial window.
  d.net.scheduler().RunUntil(Milliseconds(2));
  EXPECT_GT(flow.cwnd_bytes(), 20.0 * kMssBytes);
}

// Two hosts sending to one: the switch egress is oversubscribed 2:1 and
// loss-driven dynamics show (a single flow is paced by its own NIC and
// never congests an equal-rate path).
struct TwoToOne {
  Network net;
  Host* a1;
  Host* a2;
  Host* b;
  Switch* s;

  explicit TwoToOne(LinkOptions opts = LinkOptions()) : net(17) {
    a1 = net.AddHost("a1");
    a2 = net.AddHost("a2");
    b = net.AddHost("b");
    s = net.AddSwitch("s");
    net.Link(a1, s, kGbps, Microseconds(5), opts);
    net.Link(a2, s, kGbps, Microseconds(5), opts);
    net.Link(s, b, kGbps, Microseconds(5), opts);
    net.BuildRoutes();
  }
};

TEST(TcpTest, LossHalvesWindowViaFastRetransmit) {
  LinkOptions opts;
  opts.switch_buffer_bytes = 64 * 1518;
  TwoToOne d(opts);
  TransportConfig cfg;
  cfg.rto_min = Milliseconds(10);
  TcpSender f1(&d.net, d.a1, d.b, cfg);
  TcpSender f2(&d.net, d.a2, d.b, cfg);
  f1.Write(80'000'000);
  f2.Write(80'000'000);
  f1.Start();
  f2.Start();
  d.net.scheduler().RunUntil(Milliseconds(500));

  // The buffer overflowed, so at least one flow repaired losses and its
  // ssthresh dropped far below the initial (receive-window-sized) value.
  EXPECT_GT(f1.stats().retransmits + f2.stats().retransmits, 0u);
  EXPECT_LT(std::min(f1.ssthresh_bytes(), f2.ssthresh_bytes()), 1'000'000.0);
  EXPECT_GT(Network::FindPort(d.s, d.b)->drops(), 0u);
}

TEST(TcpTest, LongFlowsFillDropTailBuffer) {
  LinkOptions opts;
  opts.switch_buffer_bytes = 256 * 1024;
  TwoToOne d(opts);
  PersistentFlow f1(std::make_unique<TcpSender>(&d.net, d.a1, d.b, TransportConfig()));
  PersistentFlow f2(std::make_unique<TcpSender>(&d.net, d.a2, d.b, TransportConfig()));
  f1.Start();
  f2.Start();
  d.net.scheduler().RunUntil(Seconds(2.0));

  // Loss-driven TCP pushes the queue to the full buffer (paper Fig. 8).
  Port* bottleneck = Network::FindPort(d.s, d.b);
  EXPECT_GT(bottleneck->max_queue_bytes(), 240'000u);
}

TEST(TcpTest, TimeoutCollapsesWindowToOneSegment) {
  Dumbbell d;
  TransportConfig cfg;
  cfg.rto_min = Milliseconds(10);
  TcpSender flow(&d.net, d.a, d.b, cfg);
  flow.Write(100'000);
  flow.Start();
  d.net.scheduler().RunUntil(Microseconds(200));  // connection established
  ASSERT_EQ(flow.state(), ReliableSender::State::kEstablished);

  // Break the path: nothing fits in the switch egress buffer any more, so
  // every in-flight and retransmitted packet vanishes.
  Network::FindPort(d.s, d.b)->set_buffer_limit(10);
  d.net.scheduler().RunUntil(Milliseconds(500));
  EXPECT_GT(flow.stats().timeouts, 0u);
  EXPECT_DOUBLE_EQ(flow.cwnd_bytes(), static_cast<double>(kMssBytes));
}

TEST(TcpTest, CongestionAvoidanceGrowsLinearly) {
  Dumbbell d;
  TransportConfig cfg;
  TcpSender flow(&d.net, d.a, d.b, cfg);
  flow.Write(100'000'000);
  flow.Start();
  d.net.scheduler().RunUntil(Milliseconds(1));
  // Force congestion avoidance from a known point.
  d.net.scheduler().RunUntil(Milliseconds(30));
  const double cwnd_before = flow.cwnd_bytes();
  d.net.scheduler().RunUntil(Milliseconds(60));
  const double cwnd_after = flow.cwnd_bytes();
  // Still growing, monotonically, while no loss occurred (256 KB buffer and
  // cwnd capped by the 4 MB receive window means growth continues a while).
  EXPECT_GE(cwnd_after, cwnd_before);
}

}  // namespace
}  // namespace tfc
