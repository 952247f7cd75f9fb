#include "src/net/host.h"

#include <utility>

#include "src/net/network.h"
#include "src/sim/check.h"

namespace tfc {

Host::Host(Network* network, int id, std::string name)
    : Node(network, id, std::move(name)) {
  metrics_.Reset(&network->metrics());
  const std::string prefix = "host." + name_;
  metrics_.AddCallbackGauge(prefix + ".unroutable",
                            [this] { return static_cast<double>(unroutable_); });
  metrics_.AddCallbackGauge(prefix + ".down_drops",
                            [this] { return static_cast<double>(down_drops_); });
}

void Host::Receive(PacketPtr pkt, Port* ingress) {
  (void)ingress;
  if (down_) {
    // Crashed host: the NIC is dead, the packet is lost on arrival.
    ++down_drops_;
    network_->EmitTrace(FlightEventType::kFaultDrop, *pkt, this, nullptr, 0);  // lint:allow packet-drop
    return;
  }
  network_->EmitTrace(FlightEventType::kDeliver, *pkt, this, nullptr, 0);
  Endpoint* ep = network_->endpoints().Find(pkt->flow_id, id_);
  if (ep == nullptr) {
    // Packet for a finished/unknown flow (e.g. a retransmitted FIN's ACK
    // arriving after teardown): account and trace the drop so post-teardown
    // traffic is observable, then destroy it.
    ++unroutable_;
    network_->EmitTrace(FlightEventType::kDrop, *pkt, this, nullptr, 0);  // lint:allow packet-drop
    return;
  }
  ep->OnReceive(std::move(pkt));
}

void Host::Send(PacketPtr pkt) {
  TFC_CHECK(!ports_.empty());
  if (down_) {
    ++down_drops_;
    network_->EmitTrace(FlightEventType::kFaultDrop, *pkt, this, nullptr, 0);  // lint:allow packet-drop
    return;
  }
  Scheduler& sched = network_->scheduler();
  TimeNs delay = proc_base_;
  if (proc_jitter_ > 0) {
    delay += static_cast<TimeNs>(network_->rng().Uniform(0.0, static_cast<double>(proc_jitter_)));
  }
  if (delay == 0) {
    nic()->Enqueue(std::move(pkt));
    return;
  }
  // Preserve FIFO departure order under random delay.
  TimeNs depart = sched.now() + delay;
  if (depart < last_departure_) {
    depart = last_departure_;
  }
  last_departure_ = depart;
  sched.ScheduleAt(depart, PacketEvent<&Port::Enqueue>{nic(), pkt.release()});
}

void Host::RegisterEndpoint(int flow_id, Endpoint* ep) {
  network_->endpoints().Register(flow_id, id_, ep);
}

void Host::UnregisterEndpoint(int flow_id) {
  network_->endpoints().Unregister(flow_id, id_);
}

void EndpointTable::Register(int flow_id, int host_id, Endpoint* ep) {
  TFC_CHECK_GE(flow_id, 0);
  const auto i = static_cast<size_t>(flow_id);
  if (i >= flows_.size()) {
    flows_.resize(i + 1);
  }
  Flow& f = flows_[i];
  TFC_CHECK_MSG(f.host[0] != host_id && f.host[1] != host_id,
                "flow " << flow_id << " already has an endpoint on host " << host_id);
  const int slot = f.host[0] < 0 ? 0 : 1;
  TFC_CHECK_MSG(f.host[slot] < 0, "flow " << flow_id << " already has two endpoints");
  f.host[slot] = host_id;
  f.ep[slot] = ep;
}

void EndpointTable::Unregister(int flow_id, int host_id) {
  const auto i = static_cast<size_t>(static_cast<uint32_t>(flow_id));
  if (i >= flows_.size()) {
    return;
  }
  Flow& f = flows_[i];
  for (int slot = 0; slot < 2; ++slot) {
    if (f.host[slot] == host_id) {
      f.host[slot] = -1;
      f.ep[slot] = nullptr;
    }
  }
}

}  // namespace tfc
