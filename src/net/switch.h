// Output-queued store-and-forward switch with static shortest-path routing
// and per-flow ECMP across equal-cost next hops.

#ifndef SRC_NET_SWITCH_H_
#define SRC_NET_SWITCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/net/node.h"

namespace tfc {

class Switch : public Node {
 public:
  Switch(Network* network, int id, std::string name);

  void Receive(PacketPtr pkt, Port* ingress) override;

  // Routes and enqueues on the egress port, bypassing ingress agent hooks.
  // Used both by Receive and by agents re-injecting delayed packets. A
  // packet without a route is counted in unroutable_packets(), traced as a
  // kDrop and destroyed.
  void Forward(PacketPtr pkt);

  // Every equal-cost egress port toward node `dest`, in port order; empty
  // when `dest` is unknown or unreachable. A flow hashes to one of them
  // (per-flow ECMP: stable path per flow, no intra-flow reordering). Valid
  // until the next Network::BuildRoutes.
  std::span<Port* const> equal_cost_ports(int dest) const;

  uint64_t unroutable_packets() const { return unroutable_; }

  // Route installation, driven by Network::BuildRoutes. ResetRoutes drops
  // every route and sizes the table for `num_nodes` node ids. SetRoute
  // installs the route toward `dest` from a breadth-first search of the
  // topology: dist[v] is node v's hop count to dest (-1: unreachable), and
  // every port whose neighbour is one hop closer is an equal-cost choice.
  void ResetRoutes(size_t num_nodes);
  void SetRoute(int dest, std::span<const int> dist);

 private:
  // One entry per destination node id. Nearly every destination has a
  // single next hop, held inline in `port`; a multi-path destination's
  // choices are ecmp_ports_[first, first + count).
  struct Route {
    Port* port = nullptr;
    uint32_t first = 0;
    uint32_t count = 0;  // 0: unreachable
  };
  std::vector<Route> routes_;
  // The ECMP choices of all multi-path destinations, one flat array.
  std::vector<Port*> ecmp_ports_;
  uint64_t unroutable_ = 0;
};

}  // namespace tfc

#endif  // SRC_NET_SWITCH_H_
