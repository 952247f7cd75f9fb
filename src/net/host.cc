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
    network_->EmitTrace(FlightEventType::kFaultDrop, *pkt, this, nullptr);  // lint:allow packet-drop
    return;
  }
  network_->EmitTrace(FlightEventType::kDeliver, *pkt, this, nullptr);
  auto it = endpoints_.find(pkt->flow_id);
  if (it == endpoints_.end()) {
    // Packet for a finished/unknown flow (e.g. a retransmitted FIN's ACK
    // arriving after teardown): account and trace the drop so post-teardown
    // traffic is observable, then destroy it.
    ++unroutable_;
    network_->EmitTrace(FlightEventType::kDrop, *pkt, this, nullptr);  // lint:allow packet-drop
    return;
  }
  it->second->OnReceive(std::move(pkt));
}

void Host::Send(PacketPtr pkt) {
  TFC_CHECK(!ports_.empty());
  if (down_) {
    ++down_drops_;
    network_->EmitTrace(FlightEventType::kFaultDrop, *pkt, this, nullptr);  // lint:allow packet-drop
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
  Port* nic_port = nic();
  sched.ScheduleAt(depart, [nic_port, pkt = std::move(pkt)]() mutable {
    nic_port->Enqueue(std::move(pkt));
  });
}

void Host::RegisterEndpoint(int flow_id, Endpoint* ep) {
  TFC_CHECK(endpoints_.emplace(flow_id, ep).second);
}

void Host::UnregisterEndpoint(int flow_id) { endpoints_.erase(flow_id); }

}  // namespace tfc
