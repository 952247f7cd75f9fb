// Output port: drop-tail FIFO queue + attached simplex link.
//
// A full-duplex cable between two nodes is modelled as a pair of Ports, one
// on each node, cross-connected. Each Port owns the transmit queue for its
// direction; serialization occupies the port for wire_bytes*8/bps and the
// packet is delivered to the peer node after an additional propagation
// delay. Packets received *from* the peer are attributed to this Port as
// their ingress, which is what lets per-port protocol agents (TFC) see both
// the data direction (egress enqueue) and the matching reverse ACK stream.

#ifndef SRC_NET_PORT_H_
#define SRC_NET_PORT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "src/net/packet.h"
#include "src/sim/audit.h"
#include "src/sim/profile.h"
#include "src/sim/scheduler.h"
#include "src/sim/telemetry.h"
#include "src/sim/time.h"

namespace tfc {

class FaultInjector;
class Node;
class Port;

// Hook interface for per-port protocol logic living inside a switch.
// Implemented by the TFC switch module; the net layer knows only this shape.
class PortAgent {
 public:
  virtual ~PortAgent() = default;

  // Called for every packet at the moment it is enqueued on this (egress)
  // port, before the drop decision. May rewrite header fields (e.g. stamp
  // the TFC window into data packets) and account arrival traffic.
  virtual void OnEgress(Packet& pkt) = 0;

  // Called when the owning switch receives `pkt` from this port's peer
  // (i.e. the reverse direction of this port's data path). Returning false
  // transfers ownership of the packet to the agent, which must re-inject it
  // later via Switch::Forward (TFC's ACK delay function). Returning true
  // lets normal forwarding continue.
  virtual bool OnReverse(PacketPtr& pkt) = 0;

  // Fault hook: the device holding this agent's state rebooted (the paper's
  // testbed analog is a NetFPGA power-cycle). The agent must return to its
  // construction-time state and re-converge from live traffic. Any packets
  // the agent was holding (parked ACKs) are switch memory and are lost with
  // it: the agent appends them to `lost` and the caller (FaultInjector)
  // accounts their destruction. Default: stateless agent, nothing to do.
  virtual void WipeState(std::deque<PacketPtr>* lost) { (void)lost; }
};

class Port {
 public:
  Port(Scheduler* scheduler, Node* owner, int index);
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  // Wires this port to `peer_port`'s owner over a link with the given rate
  // and one-way propagation delay. Called once by Network::Link.
  void Connect(Port* peer_port, BitsPerSec bps, TimeNs prop_delay);

  // Enqueues for transmission; drops (tail) if the buffer is full. Runs the
  // agent egress hook and ECN marking first.
  void Enqueue(PacketPtr pkt);

  // --- configuration ---
  void set_buffer_limit(Bytes bytes) {
    buffer_limit_bytes_ = bytes;
    if (bytes > buffer_limit_hi_bytes_) {
      buffer_limit_hi_bytes_ = bytes;
    }
  }
  void set_ecn_threshold(Bytes bytes) { ecn_threshold_bytes_ = bytes; }
  void set_agent(std::unique_ptr<PortAgent> agent) { agent_ = std::move(agent); }

  // Fault injection (src/net/fault.h): when set, every packet that finishes
  // serializing is routed through the injector, which may drop, duplicate,
  // or delay it instead of delivering it. Not owned; the injector detaches
  // itself on destruction. Null (the default) costs one branch per packet.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }
  FaultInjector* fault_injector() const { return fault_; }

  // Schedules delivery of `pkt` to the peer node after this link's
  // propagation delay plus `extra_delay` (the fault injector's reordering
  // lever). Exposed for the injector; everything else goes through Enqueue.
  void DeliverToPeer(PacketPtr pkt, TimeNs extra_delay);

  // --- accessors ---
  Node* owner() const { return owner_; }
  Node* peer() const { return peer_node_; }
  Port* peer_port() const { return peer_port_; }
  int index() const { return index_; }
  BitsPerSec bps() const { return bps_; }
  TimeNs prop_delay() const { return prop_delay_; }
  PortAgent* agent() const { return agent_.get(); }
  Scheduler* scheduler() const { return scheduler_; }

  // Queue occupancy in frame bytes (the packet being serialized remains
  // queued, and counted, until its serialization completes).
  Bytes queue_bytes() const { return queue_bytes_; }
  size_t queue_packets() const { return queue_.size(); }
  Bytes buffer_limit() const { return buffer_limit_bytes_; }

  // Runtime-auditor hook: re-derives queue accounting from the queue's
  // actual contents and checks occupancy against the buffer limit.
  void AuditInvariants(Auditor& audit) const;

  // --- statistics ---
  uint64_t tx_packets() const { return tx_packets_; }
  Bytes tx_bytes() const { return tx_bytes_; }  // frame bytes
  uint64_t drops() const { return drops_; }
  Bytes dropped_bytes() const { return dropped_bytes_; }
  Bytes max_queue_bytes() const { return max_queue_bytes_; }
  uint64_t ecn_marks() const { return ecn_marks_; }
  void ResetMaxQueue() { max_queue_bytes_ = queue_bytes_; }

  // Cumulative time the transmitter spent serializing (simulated time).
  // busy_ns / elapsed = link utilization; docs/observability.md.
  TimeNs busy_ns() const { return busy_ns_; }

  // Telemetry name prefix for this port: "port.<node>.p<index>".
  // Registered metrics: .queue_bytes .queue_packets .drops .tx_bytes
  // .ecn_marks .busy_ns .max_queue_bytes (see docs/observability.md).
  std::string metric_prefix() const;

  // Serialization time of `wire_bytes` on this link: Bytes / BitsPerSec,
  // truncated the same way, but in 64 bits. 8e9 < 2^33, so bytes * 8e9
  // cannot overflow below 2^31 bytes; only larger frames take the 128-bit
  // division.
  TimeNs SerializationTime(Bytes wire_bytes) const {
    const auto bytes = static_cast<uint64_t>(wire_bytes.count());
    if ((bytes >> 31) != 0) {
      return wire_bytes / bps_;
    }
    return TimeNs(static_cast<int64_t>(bytes * 8'000'000'000ull / bps_.count()));
  }

 private:
  void TryTransmit();
  void OnSerialized();
  void RegisterMetrics();

  Scheduler* scheduler_;
  Node* owner_;
  int index_;

  Port* peer_port_ = nullptr;
  Node* peer_node_ = nullptr;
  BitsPerSec bps_ = 0;
  TimeNs prop_delay_ = 0;

  std::deque<PacketPtr> queue_;
  Bytes queue_bytes_ = 0;
  Bytes buffer_limit_bytes_ = 256 * 1024;
  // Largest limit ever configured; tests shrink the limit mid-run to break
  // paths, so the auditor bounds occupancy by the historical maximum.
  Bytes buffer_limit_hi_bytes_ = 256 * 1024;
  Bytes ecn_threshold_bytes_ = 0;  // 0 = marking disabled
  bool busy_ = false;

  std::unique_ptr<PortAgent> agent_;
  FaultInjector* fault_ = nullptr;

  uint64_t tx_packets_ = 0;
  Bytes tx_bytes_ = 0;
  uint64_t drops_ = 0;
  Bytes dropped_bytes_ = 0;
  Bytes max_queue_bytes_ = 0;
  uint64_t ecn_marks_ = 0;
  TimeNs busy_ns_ = 0;         // cumulative serialization time
  TimeNs busy_since_ = 0;      // start of the in-progress serialization
  ProfileSite* serialize_site_ = nullptr;  // shared "port.serialize" site

  // Callback-gauge registrations into the network's MetricRegistry (made at
  // Connect time). Keep last: gauges capture `this`.
  ScopedMetrics metrics_;
};

}  // namespace tfc

#endif  // SRC_NET_PORT_H_
