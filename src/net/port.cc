#include "src/net/port.h"

#include <utility>

#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/node.h"
#include "src/sim/check.h"

namespace tfc {

Port::Port(Scheduler* scheduler, Node* owner, int index)
    : scheduler_(scheduler), owner_(owner), index_(index) {}

void Port::Connect(Port* peer_port, BitsPerSec bps, TimeNs prop_delay) {
  TFC_CHECK_EQ(peer_port_, nullptr);
  TFC_CHECK_GT(bps.count(), 0u);
  peer_port_ = peer_port;
  peer_node_ = peer_port->owner();
  bps_ = bps;
  prop_delay_ = prop_delay;
  RegisterMetrics();
}

std::string Port::metric_prefix() const {
  return "port." + owner_->name() + ".p" + std::to_string(index_);
}

void Port::RegisterMetrics() {
  // All callback gauges over members the port maintains anyway, so the
  // data path pays nothing until a recorder or exporter samples them.
  serialize_site_ = owner_->network()->profiler().Site("port.serialize");
  metrics_.Reset(&owner_->network()->metrics());
  const std::string prefix = metric_prefix();
  metrics_.AddCallbackGauge(prefix + ".queue_bytes",
                            [this] { return static_cast<double>(queue_bytes_); });
  metrics_.AddCallbackGauge(prefix + ".queue_packets",
                            [this] { return static_cast<double>(queue_.size()); });
  metrics_.AddCallbackGauge(prefix + ".drops",
                            [this] { return static_cast<double>(drops_); });
  metrics_.AddCallbackGauge(prefix + ".tx_bytes",
                            [this] { return static_cast<double>(tx_bytes_); });
  metrics_.AddCallbackGauge(prefix + ".ecn_marks",
                            [this] { return static_cast<double>(ecn_marks_); });
  metrics_.AddCallbackGauge(prefix + ".busy_ns",
                            [this] { return static_cast<double>(busy_ns_); });
  metrics_.AddCallbackGauge(prefix + ".max_queue_bytes",
                            [this] { return static_cast<double>(max_queue_bytes_); });
}

void Port::AuditInvariants(Auditor& audit) const {
  if (peer_port_ == nullptr) {
    return;  // unconnected port: no queue activity possible
  }
  // Bound by the largest limit ever configured: packets admitted under an
  // earlier, larger limit legitimately remain queued after the limit shrinks.
  audit.CheckLe(queue_bytes_, buffer_limit_hi_bytes_, "occupancy<=buffer");
  audit.CheckLe(max_queue_bytes_, buffer_limit_hi_bytes_, "max occupancy<=buffer");
  Bytes sum = 0;
  queue_.AuditInvariants(audit, [&sum](const Packet& p) { sum += Bytes(p.frame_bytes()); });
  audit.CheckEq(queue_bytes_, sum, "queue_bytes==sum(queued frames)");
  // Between events the transmitter is busy whenever the queue is non-empty
  // (TryTransmit runs before every return to the scheduler).
  audit.Check(queue_.empty() || busy_, "transmitter busy while queue non-empty");
}

void Port::Enqueue(PacketPtr pkt) {
  TFC_CHECK_NE(peer_port_, nullptr);
  if (agent_ != nullptr) {
    agent_->OnEgress(*pkt);
  }
  const Bytes frame = pkt->frame_bytes();
  if (queue_bytes_ + frame > buffer_limit_bytes_) {
    ++drops_;
    dropped_bytes_ += frame;
    owner_->network()->EmitTrace(FlightEventType::kDrop, *pkt, owner_, this);
    return;  // tail drop
  }
  // DCTCP-style instantaneous marking: mark when the queue the packet joins
  // already exceeds the threshold.
  if (ecn_threshold_bytes_ > 0 && pkt->ecn_capable && queue_bytes_ >= ecn_threshold_bytes_) {
    pkt->ecn_ce = true;
    ++ecn_marks_;
  }
  queue_bytes_ += frame;
  if (queue_bytes_ > max_queue_bytes_) {
    max_queue_bytes_ = queue_bytes_;
  }
  owner_->network()->EmitTrace(FlightEventType::kEnqueue, *pkt, owner_, this);
  queue_.Push(std::move(pkt));
  TryTransmit();
}

void Port::TryTransmit() {
  if (busy_ || queue_.empty()) {
    return;
  }
  busy_ = true;
  busy_since_ = scheduler_->now();
  const Packet& pkt = queue_.front();
  const TimeNs ser = SerializationTime(pkt.wire_bytes());
  scheduler_->ScheduleAfter(ser, [this] { OnSerialized(); });
}

void Port::OnSerialized() {
  ProfileScope prof(&owner_->network()->profiler(), serialize_site_);
  TFC_CHECK(busy_ && !queue_.empty());
  PacketPtr pkt = queue_.Pop();
  queue_bytes_ -= Bytes(pkt->frame_bytes());
  ++tx_packets_;
  tx_bytes_ += Bytes(pkt->frame_bytes());
  const TimeNs ser = scheduler_->now() - busy_since_;
  busy_ns_ += ser;
  serialize_site_->AddSim(ser);
  busy_ = false;
  owner_->network()->EmitTrace(FlightEventType::kTransmit, *pkt, owner_, this);

  // The wire: with an injector attached the packet may be lost, duplicated,
  // or delayed here instead of (or in addition to) the normal delivery.
  if (fault_ != nullptr) {
    fault_->OnWire(this, std::move(pkt));
  } else {
    DeliverToPeer(std::move(pkt), 0);
  }

  TryTransmit();
}

void Port::DeliverToPeer(PacketPtr pkt, TimeNs extra_delay) {
  // The packet rides inside the event to the peer port, the ingress of its
  // owner. The Network owns nodes and ports for the whole simulation
  // lifetime.
  scheduler_->ScheduleAfter(prop_delay_ + extra_delay,
                            PacketEvent<&Port::ReceiveFromPeer>{peer_port_, pkt.release()});
}

void Port::ReceiveFromPeer(PacketPtr pkt) { owner_->Receive(std::move(pkt), this); }

}  // namespace tfc
