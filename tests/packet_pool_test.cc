// Packet pool: recycling, full field reset between uses, stats, and the
// stateless deleter's return of every packet to the pool that carved it.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/topo/topologies.h"
#include "src/workload/protocol.h"

namespace tfc {
namespace {

// The scrub check below names every Packet field; pinning the size makes
// a new field impossible to add without revisiting it.
static_assert(sizeof(Packet) == 64,
              "Packet changed size: extend ExpectDefaultPacket and DirtyPacket "
              "to cover the new field, then update this size");
static_assert(sizeof(PacketPtr) == 8, "PacketPtr is one pointer");

// Every field of a recycled packet must come back at its default: a stale
// ECN/TFC field leaking from one flow into another would silently skew
// protocol behaviour.
void ExpectDefaultPacket(const Packet& p) {
  const Packet d;
  EXPECT_EQ(p.flow_id, d.flow_id);
  EXPECT_EQ(p.src, d.src);
  EXPECT_EQ(p.dst, d.dst);
  EXPECT_EQ(p.type, d.type);
  EXPECT_EQ(p.seq, d.seq);
  EXPECT_EQ(p.ack, d.ack);
  EXPECT_EQ(p.payload, d.payload);
  EXPECT_EQ(p.rm, d.rm);
  EXPECT_EQ(p.rma, d.rma);
  EXPECT_EQ(p.weight, d.weight);
  EXPECT_EQ(p.ecn_capable, d.ecn_capable);
  EXPECT_EQ(p.ecn_ce, d.ecn_ce);
  EXPECT_EQ(p.ecn_echo, d.ecn_echo);
  EXPECT_EQ(p.window, d.window);
  EXPECT_EQ(p.ts, d.ts);
  EXPECT_EQ(p.ts_echo, d.ts_echo);
  EXPECT_EQ(p.next, d.next);
}

Packet DirtyPacket() {
  Packet p;
  p.flow_id = 5;
  p.src = 1;
  p.dst = 2;
  p.type = PacketType::kFinAck;
  p.seq = 1000;
  p.ack = 2000;
  p.payload = 1460;
  p.rm = true;
  p.rma = true;
  p.weight = 9;
  p.ecn_capable = true;
  p.ecn_ce = true;
  p.ecn_echo = true;
  p.window = 12345;
  p.ts = 42;
  p.ts_echo = 43;
  p.next = &p;
  return p;
}

TEST(PacketPoolTest, RecycledPacketComesBackFullyReset) {
  PacketPool pool;
  Packet* first;
  {
    PacketPtr pkt = pool.Allocate();
    first = pkt.get();
    *pkt = DirtyPacket();
  }  // released back to the pool, still dirty
  EXPECT_EQ(pool.free_size(), 1u);

  PacketPtr again = pool.Allocate();
  EXPECT_EQ(again.get(), first) << "free-list should hand back the hot object";
  ExpectDefaultPacket(*again);
}

TEST(PacketPoolTest, StatsTrackHitsMissesAndHighWater) {
  PacketPool pool;
  {
    PacketPtr a = pool.Allocate();
    PacketPtr b = pool.Allocate();
    PacketPtr c = pool.Allocate();
    EXPECT_EQ(pool.misses(), 3u);
    EXPECT_EQ(pool.hits(), 0u);
    EXPECT_EQ(pool.outstanding(), 3u);
    EXPECT_EQ(pool.high_water(), 3u);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.free_size(), 3u);
  {
    PacketPtr a = pool.Allocate();
    PacketPtr b = pool.Allocate();
    EXPECT_EQ(pool.hits(), 2u);
    EXPECT_EQ(pool.misses(), 3u);
    EXPECT_EQ(pool.high_water(), 3u) << "high-water must not reset";
  }
}

// Two pools, each spanning several slab chunks, released in interleaved
// order: the stateless deleter must send every packet back to the pool
// that carved it, so both ledgers balance.
TEST(PacketPoolTest, InterleavedReleasesReturnToTheirOwnPool) {
  PacketPool a;
  PacketPool b;
  const size_t n = 2 * PacketPool::kPacketsPerChunk + 1;
  std::vector<PacketPtr> from_a;
  std::vector<PacketPtr> from_b;
  for (size_t i = 0; i < n; ++i) {
    from_a.push_back(a.Allocate());
    from_b.push_back(b.Allocate());
  }
  EXPECT_EQ(a.chunks(), 3u);
  EXPECT_EQ(b.chunks(), 3u);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(PacketPool::Owner(from_a[i].get()), &a);
    EXPECT_EQ(PacketPool::Owner(from_b[i].get()), &b);
  }
  // Release from both ends of both vectors, alternating pools.
  for (size_t i = 0; i < n; ++i) {
    const size_t k = i % 2 == 0 ? i / 2 : n - 1 - i / 2;
    from_b[k].reset();
    from_a[k].reset();
  }
  for (PacketPool* pool : {&a, &b}) {
    EXPECT_EQ(pool->outstanding(), 0u);
    EXPECT_EQ(pool->freed(), n);
    EXPECT_EQ(pool->free_size(), n);
    AuditReport report;
    {
      Auditor audit(&report);
      pool->AuditInvariants(audit);
    }
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

// End-to-end: a full simulation run recycles packets heavily (hits greatly
// outnumber misses) and leaks nothing — after the run drains, every packet
// the pool ever issued is either back on the free list or was never pooled.
TEST(PacketPoolTest, SimulationRecyclesAndBalances) {
  ProtocolSuite suite;
  Network net(7);
  StarTopology topo = BuildStar(net, 4);
  suite.InstallSwitchLogic(net);
  auto flow = suite.MakeSender(&net, topo.hosts[1], topo.hosts[0]);
  flow->Write(2'000'000);
  flow->Close();
  flow->Start();
  net.scheduler().Run();
  EXPECT_EQ(flow->delivered_bytes(), 2'000'000u);

  const PacketPool& pool = net.packet_pool();
  EXPECT_EQ(pool.outstanding(), 0u) << "all packets must return after drain";
  EXPECT_EQ(pool.free_size(), pool.misses());
  EXPECT_GT(pool.hits(), 10 * pool.misses())
      << "steady state should run allocation-free";
  EXPECT_LT(pool.high_water(), 1000u);
}

}  // namespace
}  // namespace tfc
