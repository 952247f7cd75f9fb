// End host: a single NIC port, and the transport endpoints registered on it.
//
// The host models a configurable random per-packet processing delay on the
// send path (OS stack + NIC). The delay is applied so that packet order is
// preserved (a later packet never departs before an earlier one), matching
// how a real transmit path behaves. This is the jitter source behind the
// paper's Fig. 6 observation that the switch-measured rtt_b sits a constant
// few microseconds below the full reference RTT.

#ifndef SRC_NET_HOST_H_
#define SRC_NET_HOST_H_

#include <cstdint>
#include <vector>

#include "src/net/node.h"
#include "src/sim/random.h"
#include "src/sim/telemetry.h"

namespace tfc {

// Transport endpoint interface (a sender or receiver half of a flow).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void OnReceive(PacketPtr pkt) = 0;
};

// Flow-id-indexed endpoint dispatch, one per Network and shared by its
// hosts. Flow ids are dense (Network::AllocateFlowId counts from 1), so a
// flat table with two {host id, Endpoint*} slots per flow id, the flow's
// sender and receiver halves, resolves every arriving packet with one
// indexed load. Ids index the table directly: register small ids only.
class EndpointTable {
 public:
  // At most one endpoint per (flow id, host) and two per flow id.
  void Register(int flow_id, int host_id, Endpoint* ep);
  // No-op when `host_id` holds no endpoint for `flow_id`.
  void Unregister(int flow_id, int host_id);
  // Null for a negative, out-of-range or unregistered flow id.
  Endpoint* Find(int flow_id, int host_id) const {
    const auto i = static_cast<size_t>(static_cast<uint32_t>(flow_id));
    if (i >= flows_.size()) {
      return nullptr;
    }
    const Flow& f = flows_[i];
    return f.host[0] == host_id ? f.ep[0] : f.host[1] == host_id ? f.ep[1] : nullptr;
  }

 private:
  struct Flow {
    int32_t host[2] = {-1, -1};  // -1: free slot
    Endpoint* ep[2] = {nullptr, nullptr};
  };
  std::vector<Flow> flows_;
};

class Host : public Node {
 public:
  Host(Network* network, int id, std::string name);

  bool is_host() const override { return true; }

  void Receive(PacketPtr pkt, Port* ingress) override;

  // Sends through the NIC, applying the host processing-delay model.
  void Send(PacketPtr pkt);

  // Endpoint registration: packets are dispatched by flow id through the
  // network's EndpointTable. Registering a flow id twice on one host, or on
  // a third host, fails a TFC_CHECK.
  void RegisterEndpoint(int flow_id, Endpoint* ep);
  void UnregisterEndpoint(int flow_id);

  // Host processing delay: base + Uniform[0, jitter) per packet.
  void set_processing_delay(TimeNs base, TimeNs jitter) {
    proc_base_ = base;
    proc_jitter_ = jitter;
  }

  Port* nic() const { return ports_.at(0).get(); }

  // Crash/restart (fault injection): while down the host drops everything it
  // would send or receive. Endpoint state survives — the model is a machine
  // that is unreachable, not one with wiped memory; transports recover via
  // their own retransmission machinery once the host is back.
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

  // Packets for a finished/unknown flow, dropped at dispatch. Also exported
  // as the `host.<name>.unroutable` metric and a kDrop trace event.
  uint64_t unroutable_packets() const { return unroutable_; }
  // Packets destroyed because the host was down (fault.* analog at the
  // host; exported as `host.<name>.down_drops`).
  uint64_t down_drops() const { return down_drops_; }

 private:
  TimeNs proc_base_ = 0;
  TimeNs proc_jitter_ = 0;
  TimeNs last_departure_ = 0;
  uint64_t unroutable_ = 0;
  uint64_t down_drops_ = 0;
  bool down_ = false;
  // Keep last: gauges capture `this`.
  ScopedMetrics metrics_;
};

}  // namespace tfc

#endif  // SRC_NET_HOST_H_
