#include "src/net/switch.h"

#include "src/net/network.h"

namespace tfc {

Switch::Switch(Network* network, int id, std::string name)
    : Node(network, id, std::move(name)) {}

void Switch::Receive(PacketPtr pkt, Port* ingress) {
  // Give the ingress port's agent (the data-direction egress logic of that
  // port) a chance to intercept reverse-path packets — TFC delays RMA ACKs
  // whose carried window is below one MSS here.
  if (ingress->agent() != nullptr) {
    if (!ingress->agent()->OnReverse(pkt)) {
      return;  // agent took ownership and will call Forward() later
    }
  }
  Forward(std::move(pkt));
}

namespace {

// Deterministic per-switch flow-id mix: without the switch-id salt every
// tier would make the same choice for a flow and multi-stage topologies
// would only ever use the "diagonal" paths (the classic ECMP hash
// correlation problem; real switches salt their hash the same way).
inline size_t EcmpIndex(int flow_id, int switch_id, size_t choices) {
  uint64_t mixed = static_cast<uint64_t>(flow_id) * 0x9e3779b97f4a7c15ull;
  mixed ^= static_cast<uint64_t>(switch_id) * 0xc2b2ae3d27d4eb4full;
  mixed ^= mixed >> 29;
  mixed *= 0xbf58476d1ce4e5b9ull;
  return static_cast<size_t>((mixed >> 32) % choices);
}

}  // namespace

void Switch::Forward(PacketPtr pkt) {
  // A negative dst wraps past the table like one beyond it.
  const auto dest = static_cast<size_t>(static_cast<uint32_t>(pkt->dst));
  if (dest >= routes_.size() || routes_[dest].count == 0) {
    ++unroutable_;
    network_->EmitTrace(FlightEventType::kDrop, *pkt, this, nullptr, 0);  // lint:allow packet-drop
    return;
  }
  const Route& route = routes_[dest];
  Port* out = route.count == 1
                  ? route.port
                  : ecmp_ports_[route.first + EcmpIndex(pkt->flow_id, id(), route.count)];
  out->Enqueue(std::move(pkt));
}

void Switch::ResetRoutes(size_t num_nodes) {
  routes_.assign(num_nodes, Route{});
  ecmp_ports_.clear();
}

void Switch::SetRoute(int dest, std::span<const int> dist) {
  const int d = dist[static_cast<size_t>(id())];
  if (d <= 0) {
    return;  // dest itself or unreachable
  }
  Route& route = routes_[static_cast<size_t>(dest)];
  route.first = static_cast<uint32_t>(ecmp_ports_.size());
  for (const auto& p : ports()) {
    if (p->peer() != nullptr && dist[static_cast<size_t>(p->peer()->id())] == d - 1) {
      ecmp_ports_.push_back(p.get());
    }
  }
  route.count = static_cast<uint32_t>(ecmp_ports_.size()) - route.first;
  if (route.count == 1) {
    route.port = ecmp_ports_.back();  // a single next hop stays inline
    ecmp_ports_.pop_back();
  }
}

std::span<Port* const> Switch::equal_cost_ports(int dest) const {
  const auto d = static_cast<size_t>(static_cast<uint32_t>(dest));
  if (d >= routes_.size()) {
    return {};
  }
  const Route& route = routes_[d];
  if (route.count == 1) {
    return {&route.port, 1};
  }
  return {ecmp_ports_.data() + route.first, route.count};
}

}  // namespace tfc
