#include "src/net/network.h"

#include <algorithm>

#include "src/sim/check.h"

namespace tfc {

Network::Network(uint64_t seed) : rng_(seed) {
  // Built-in audits: the simulator core and net-layer structures. Every
  // component above this layer (TFC port agents, transports) registers its
  // own invariants on top via audit().
  audit_registry_.Register("sim.scheduler",
                           [this](Auditor& a) { scheduler_.AuditInvariants(a); });
  audit_registry_.Register("net.packet_pool",
                           [this](Auditor& a) { packet_pool_.AuditInvariants(a); });
  audit_registry_.Register("net.ports", [this](Auditor& a) {
    for (const auto& node : nodes_) {
      for (const auto& port : node->ports()) {
        port->AuditInvariants(a);
      }
    }
  });
  // Simulator-core gauges. All callback gauges over existing members: zero
  // hot-path cost until something actually samples them.
  metrics_.AddCallbackGauge("sim.now_ns",
                            [this] { return static_cast<double>(scheduler_.now()); });
  metrics_.AddCallbackGauge("sim.events_executed",
                            [this] { return static_cast<double>(scheduler_.executed()); });
  metrics_.AddCallbackGauge("sim.events_pending",
                            [this] { return static_cast<double>(scheduler_.pending()); });
  metrics_.AddCallbackGauge("pool.outstanding", [this] {
    return static_cast<double>(packet_pool_.outstanding());
  });
  metrics_.AddCallbackGauge("pool.high_water", [this] {
    return static_cast<double>(packet_pool_.high_water());
  });
  metrics_.AddCallbackGauge("pool.misses",
                            [this] { return static_cast<double>(packet_pool_.misses()); });
  if (AuditEnabledByDefault()) {
    EnableAudit();
  }
}

Network::~Network() {
  if (audit_enabled_) {
    const AuditReport report = RunAudit();
    ++audit_passes_;
    TFC_CHECK_MSG(report.ok(), "teardown " << report.ToString());
  }
}

void Network::EnableAudit(TimeNs period) {
  TFC_CHECK_GT(period, 0);
  audit_period_ = period;
  if (audit_enabled_) {
    return;
  }
  audit_enabled_ = true;
  scheduler_.ScheduleDaemonAfter(audit_period_, [this] { AuditTick(); });
}

void Network::AuditTick() {
  ProfileScope prof(&profiler_, profiler_.Site("net.audit_tick"));
  const AuditReport report = RunAudit();
  ++audit_passes_;
  TFC_CHECK_MSG(report.ok(), report.ToString());
  scheduler_.ScheduleDaemonAfter(audit_period_, [this] { AuditTick(); });
}

std::string_view Network::NodeName(int id) const {
  return id >= 0 && id < num_nodes()
             ? std::string_view(nodes_[static_cast<size_t>(id)]->name())
             : std::string_view();
}

void Network::ArmFlightPostMortem(const std::string& path) {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    names.push_back(node->name());
  }
  flight_.ArmPostMortem(path, std::move(names));
}

bool Network::DumpFlight(const std::string& path, std::string* error) const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    names.push_back(node->name());
  }
  return flight_.Dump(path, names, error);
}

Host* Network::AddHost(std::string name) {
  auto host = std::make_unique<Host>(this, num_nodes(), std::move(name));
  Host* raw = host.get();
  nodes_.push_back(std::move(host));
  return raw;
}

Switch* Network::AddSwitch(std::string name) {
  auto sw = std::make_unique<Switch>(this, num_nodes(), std::move(name));
  Switch* raw = sw.get();
  nodes_.push_back(std::move(sw));
  return raw;
}

Port* Network::Link(Node* a, Node* b, BitsPerSec bps, TimeNs prop_delay,
                    const LinkOptions& opts) {
  Port* pa = a->AddPort();
  Port* pb = b->AddPort();
  pa->Connect(pb, bps, prop_delay);
  pb->Connect(pa, bps, prop_delay);
  pa->set_buffer_limit(a->is_host() ? opts.host_buffer_bytes : opts.switch_buffer_bytes);
  pb->set_buffer_limit(b->is_host() ? opts.host_buffer_bytes : opts.switch_buffer_bytes);
  if (opts.ecn_threshold_bytes > 0) {
    if (!a->is_host()) {
      pa->set_ecn_threshold(opts.ecn_threshold_bytes);
    }
    if (!b->is_host()) {
      pb->set_ecn_threshold(opts.ecn_threshold_bytes);
    }
  }
  return pa;
}

void Network::BuildRoutes() {
  const size_t n = nodes_.size();
  std::vector<Switch*> switches;
  for (const auto& node : nodes_) {
    if (auto* sw = dynamic_cast<Switch*>(node.get())) {
      sw->ResetRoutes(n);
      switches.push_back(sw);
    }
  }
  // One BFS per destination over reused buffers: dist[v] is v's hop count to
  // dest (-1: unreachable), and `order` is the FIFO, which each node enters
  // at most once.
  std::vector<int> dist(n);
  std::vector<size_t> order(n);
  for (size_t dest = 0; dest < n; ++dest) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[dest] = 0;
    order[0] = dest;
    for (size_t head = 0, tail = 1; head < tail; ++head) {
      const size_t u = order[head];
      for (const auto& up : nodes_[u]->ports()) {
        if (up->peer() == nullptr) {
          continue;
        }
        const auto v = static_cast<size_t>(up->peer()->id());
        if (dist[v] == -1) {
          dist[v] = dist[u] + 1;
          order[tail++] = v;
        }
      }
    }
    for (Switch* sw : switches) {
      sw->SetRoute(static_cast<int>(dest), dist);
    }
  }
}

Port* Network::FindPort(Node* a, Node* b) {
  for (const auto& p : a->ports()) {
    if (p->peer() == b) {
      return p.get();
    }
  }
  return nullptr;
}

}  // namespace tfc
