// ECMP routing and fat-tree topology tests: equal-cost set computation,
// per-flow path stability, load spreading, and TFC over multipath.

#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "src/net/network.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"
#include "src/workload/persistent_flow.h"

namespace tfc {
namespace {

// Hop counts from every node to `dest` (-1: unreachable), by a plain BFS.
std::vector<int> HopsTo(const Network& net, int dest) {
  std::vector<int> hops(static_cast<size_t>(net.num_nodes()), -1);
  std::queue<const Node*> frontier;
  hops[static_cast<size_t>(dest)] = 0;
  frontier.push(net.node(dest));
  while (!frontier.empty()) {
    const Node* u = frontier.front();
    frontier.pop();
    for (const auto& port : u->ports()) {
      const Node* v = port->peer();
      if (v != nullptr && hops[static_cast<size_t>(v->id())] < 0) {
        hops[static_cast<size_t>(v->id())] = hops[static_cast<size_t>(u->id())] + 1;
        frontier.push(v);
      }
    }
  }
  return hops;
}

// Every switch's equal_cost_ports(dest) must be exactly its ports toward a
// neighbour one hop closer to dest, in port order, for every destination.
void ExpectRoutesMatchBfs(const Network& net) {
  for (int dest = 0; dest < net.num_nodes(); ++dest) {
    const std::vector<int> hops = HopsTo(net, dest);
    for (const auto& node : net.nodes()) {
      const auto* sw = dynamic_cast<const Switch*>(node.get());
      if (sw == nullptr) {
        continue;
      }
      std::vector<Port*> want;
      const int d = hops[static_cast<size_t>(sw->id())];
      for (const auto& port : sw->ports()) {
        if (d > 0 && port->peer() != nullptr &&
            hops[static_cast<size_t>(port->peer()->id())] == d - 1) {
          want.push_back(port.get());
        }
      }
      const auto got = sw->equal_cost_ports(dest);
      EXPECT_EQ(std::vector<Port*>(got.begin(), got.end()), want)
          << sw->name() << " toward " << net.node(dest)->name();
    }
  }
  for (const auto& node : net.nodes()) {
    if (const auto* sw = dynamic_cast<const Switch*>(node.get())) {
      EXPECT_TRUE(sw->equal_cost_ports(-1).empty());
      EXPECT_TRUE(sw->equal_cost_ports(net.num_nodes()).empty());
    }
  }
}

TEST(EcmpTest, RouteTablesMatchABreadthFirstSearch) {
  {
    Network net;
    TestbedTopology topo = BuildTestbed(net);
    ExpectRoutesMatchBfs(net);
    // Grow it: a second core between NF1 and NF2 makes their paths
    // equal-cost pairs, and a host behind it adds a destination.
    Switch* core2 = net.AddSwitch("core2");
    net.Link(topo.switches[1], core2, kGbps, Microseconds(5));
    net.Link(core2, topo.switches[2], kGbps, Microseconds(5));
    Host* extra = net.AddHost("extra");
    net.Link(extra, core2, kGbps, Microseconds(5));
    net.BuildRoutes();
    ExpectRoutesMatchBfs(net);
    EXPECT_EQ(topo.switches[1]->equal_cost_ports(topo.hosts[3]->id()).size(), 2u);
  }
  {
    Network net;
    BuildLeafSpine(net, 3, 4);
    ExpectRoutesMatchBfs(net);
  }
  {
    Network net;
    BuildFatTree(net, 4);
    ExpectRoutesMatchBfs(net);
  }
}

TEST(EcmpTest, EqualCostSetsOnParallelPaths) {
  // a -- s1 -- {m1,m2} -- s2 -- b : two equal-cost paths between s1 and s2.
  Network net(3);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* s1 = net.AddSwitch("s1");
  Switch* s2 = net.AddSwitch("s2");
  Switch* m1 = net.AddSwitch("m1");
  Switch* m2 = net.AddSwitch("m2");
  net.Link(a, s1, kGbps, 0);
  net.Link(s1, m1, kGbps, 0);
  net.Link(s1, m2, kGbps, 0);
  net.Link(m1, s2, kGbps, 0);
  net.Link(m2, s2, kGbps, 0);
  net.Link(s2, b, kGbps, 0);
  net.BuildRoutes();

  EXPECT_EQ(s1->equal_cost_ports(b->id()).size(), 2u);
  EXPECT_EQ(s2->equal_cost_ports(a->id()).size(), 2u);
  EXPECT_EQ(m1->equal_cost_ports(b->id()).size(), 1u);
}

TEST(EcmpTest, FlowsSpreadAcrossPathsButEachFlowIsStable) {
  Network net(3);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* s1 = net.AddSwitch("s1");
  Switch* s2 = net.AddSwitch("s2");
  Switch* m1 = net.AddSwitch("m1");
  Switch* m2 = net.AddSwitch("m2");
  net.Link(a, s1, kGbps, 0);
  net.Link(s1, m1, kGbps, 0);
  net.Link(s1, m2, kGbps, 0);
  net.Link(m1, s2, kGbps, 0);
  net.Link(m2, s2, kGbps, 0);
  net.Link(s2, b, kGbps, 0);
  net.BuildRoutes();

  Port* via_m1 = Network::FindPort(s1, m1);
  Port* via_m2 = Network::FindPort(s1, m2);

  // Inject many flows; both paths must carry traffic, and re-sending the
  // same flow id must always take the same path.
  uint64_t m1_before = 0;
  uint64_t m2_before = 0;
  for (int flow = 1; flow <= 32; ++flow) {
    m1_before = via_m1->tx_packets();
    m2_before = via_m2->tx_packets();
    for (int rep = 0; rep < 3; ++rep) {
      PacketPtr pkt = net.AllocatePacket();
      pkt->flow_id = flow;
      pkt->src = a->id();
      pkt->dst = b->id();
      pkt->type = PacketType::kData;
      pkt->payload = 100;
      a->Send(std::move(pkt));
    }
    net.scheduler().Run();
    const uint64_t d1 = via_m1->tx_packets() - m1_before;
    const uint64_t d2 = via_m2->tx_packets() - m2_before;
    // All three copies of one flow take exactly one of the two paths.
    EXPECT_TRUE((d1 == 3 && d2 == 0) || (d1 == 0 && d2 == 3))
        << "flow " << flow << " split across paths: " << d1 << "/" << d2;
  }
  EXPECT_GT(via_m1->tx_packets(), 0u);
  EXPECT_GT(via_m2->tx_packets(), 0u);
}

TEST(FatTreeTest, K4ShapeAndPathLengths) {
  Network net(5);
  FatTreeTopology topo = BuildFatTree(net, 4);
  EXPECT_EQ(topo.hosts.size(), 16u);
  EXPECT_EQ(topo.cores.size(), 4u);
  EXPECT_EQ(topo.edges.size(), 4u);
  EXPECT_EQ(topo.aggs.size(), 4u);
  for (int pod = 0; pod < 4; ++pod) {
    EXPECT_EQ(topo.edges[static_cast<size_t>(pod)].size(), 2u);
    // Edge: 2 agg uplinks + 2 hosts; agg: 2 edge + 2 core.
    for (Switch* sw : topo.edges[static_cast<size_t>(pod)]) {
      EXPECT_EQ(sw->ports().size(), 4u);
    }
    for (Switch* sw : topo.aggs[static_cast<size_t>(pod)]) {
      EXPECT_EQ(sw->ports().size(), 4u);
    }
  }
  for (Switch* core : topo.cores) {
    EXPECT_EQ(core->ports().size(), 4u);  // one per pod
  }

  // Inter-pod: the edge switch sees 2 equal-cost agg uplinks.
  Host* src = topo.host(0, 0);
  Host* dst = topo.host(3, 3);
  Switch* edge = topo.edges[0][0];
  EXPECT_EQ(edge->equal_cost_ports(dst->id()).size(), 2u);
  // Intra-pod, different edge: also 2 paths (via either agg).
  EXPECT_EQ(edge->equal_cost_ports(topo.host(0, 2)->id()).size(), 2u);
  // Same edge switch: single path down.
  EXPECT_EQ(edge->equal_cost_ports(topo.host(0, 1)->id()).size(), 1u);
  (void)src;
}

TEST(FatTreeTest, PermutationTrafficUsesMultiplePathsUnderTfc) {
  Network net(7);
  FatTreeTopology topo = BuildFatTree(net, 4);
  InstallTfcSwitches(net);

  // Pod-shifted permutation: host i of pod p sends to host i of pod p+1 —
  // all traffic is inter-pod, the stress case for the core layer.
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (int pod = 0; pod < 4; ++pod) {
    for (int i = 0; i < 4; ++i) {
      Host* src = topo.host(pod, i);
      Host* dst = topo.host((pod + 1) % 4, i);
      flows.push_back(std::make_unique<PersistentFlow>(
          std::make_unique<TfcSender>(&net, src, dst, TfcHostConfig())));
      flows.back()->Start();
    }
  }
  net.scheduler().RunUntil(Milliseconds(100));
  std::vector<uint64_t> base;
  for (auto& f : flows) {
    base.push_back(f->delivered_bytes());
  }
  net.scheduler().RunUntil(Milliseconds(300));

  // Multiple core switches carry traffic.
  int cores_used = 0;
  for (Switch* core : topo.cores) {
    uint64_t tx = 0;
    for (const auto& port : core->ports()) {
      tx += static_cast<uint64_t>(port->tx_bytes().count());
    }
    cores_used += tx > 0 ? 1 : 0;
  }
  EXPECT_GE(cores_used, 3);

  // Every flow makes progress; aggregate is a healthy share of the 16 Gbps
  // bisection (per-flow ECMP cannot perfectly pack 16 flows onto 4 cores).
  double total = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    const double bps =
        static_cast<double>(flows[i]->delivered_bytes() - base[i]) * 8.0 / 0.2;
    EXPECT_GT(bps, 0.05e9) << "starved flow " << i;
    total += bps;
  }
  EXPECT_GT(total, 6e9);

  // And no switch port dropped anything (TFC's rare-loss property holds
  // under multipath).
  for (const auto& node : net.nodes()) {
    if (!node->is_host()) {
      for (const auto& port : node->ports()) {
        EXPECT_EQ(port->drops(), 0u);
      }
    }
  }
}

TEST(FatTreeTest, K6Scales) {
  Network net(9);
  FatTreeTopology topo = BuildFatTree(net, 6);
  EXPECT_EQ(topo.hosts.size(), 54u);
  EXPECT_EQ(topo.cores.size(), 9u);
  // Inter-pod equal-cost fanout at the aggregation layer: 3 core uplinks.
  Switch* agg = topo.aggs[0][0];
  EXPECT_EQ(agg->equal_cost_ports(topo.host(5, 0)->id()).size(), 3u);
}

}  // namespace
}  // namespace tfc
