#include "src/net/port.h"

#include <utility>

#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/node.h"
#include "src/net/trace.h"
#include "src/sim/check.h"

namespace tfc {

Port::Port(Scheduler* scheduler, Node* owner, int index)
    : scheduler_(scheduler), owner_(owner), index_(index) {}

void Port::Connect(Port* peer_port, BitsPerSec bps, TimeNs prop_delay) {
  TFC_CHECK_EQ(peer_port_, nullptr);
  TFC_CHECK_GT(bps.count(), 0u);
  TFC_CHECK_GE(prop_delay, TimeNs(0));
  TFC_CHECK_LE(prop_delay, kMaxDelay);
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
  // All callback gauges over what the port maintains anyway, so the data
  // path pays nothing until a recorder or exporter samples them. Each reads
  // the state as of the event being dispatched.
  serialize_site_ = owner_->network()->profiler().Site("port.serialize");
  metrics_.Reset(&owner_->network()->metrics());
  const std::string prefix = metric_prefix();
  metrics_.AddCallbackGauge(prefix + ".queue_bytes",
                            [this] { return static_cast<double>(queue_bytes()); });
  metrics_.AddCallbackGauge(prefix + ".queue_packets",
                            [this] { return static_cast<double>(queue_packets()); });
  metrics_.AddCallbackGauge(prefix + ".drops",
                            [this] { return static_cast<double>(drops_); });
  metrics_.AddCallbackGauge(prefix + ".tx_bytes",
                            [this] { return static_cast<double>(tx_bytes()); });
  metrics_.AddCallbackGauge(prefix + ".ecn_marks",
                            [this] { return static_cast<double>(ecn_marks_); });
  metrics_.AddCallbackGauge(prefix + ".busy_ns",
                            [this] { return static_cast<double>(busy_ns()); });
  metrics_.AddCallbackGauge(prefix + ".max_queue_bytes",
                            [this] { return static_cast<double>(max_queue_bytes_); });
}

void Port::AuditInvariants(Auditor& audit) const {
  if (peer_port_ == nullptr) {
    return;  // unconnected port: no queue activity possible
  }
  // Bound by the largest limit ever configured: packets admitted under an
  // earlier, larger limit legitimately remain queued after the limit shrinks.
  audit.CheckLe(queue_bytes(), buffer_limit_hi_bytes_, "occupancy<=buffer");
  audit.CheckLe(max_queue_bytes_, buffer_limit_hi_bytes_, "max occupancy<=buffer");
  Bytes sum = busy_ ? tx_frame_bytes_ : Bytes(0);
  queue_.AuditInvariants(audit, [&sum](const Packet& p) { sum += Bytes(p.frame_bytes()); });
  audit.CheckEq(queue_bytes_, sum, "queue_bytes==sum(queued frames)");
  // Between events the transmitter is busy whenever a packet waits, and
  // the frame it serializes has a completion still to run.
  audit.Check(queue_.empty() || (busy_ && tx_completion_.valid() && !FrameDone()),
              "transmitter busy while queue non-empty");
}

void Port::Enqueue(PacketPtr pkt) {
  TFC_CHECK_NE(peer_port_, nullptr);
  if (FrameDone()) {
    Retire();
  }
  if (agent_ != nullptr) {
    agent_->OnEgress(*pkt);
  }
  const Bytes frame = pkt->frame_bytes();
  if (queue_bytes_ + frame > buffer_limit_bytes_) {
    ++drops_;
    owner_->network()->EmitTrace(FlightEventType::kDrop, *pkt, owner_, this, queue_bytes_);
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
  owner_->network()->EmitTrace(FlightEventType::kEnqueue, *pkt, owner_, this, queue_bytes_);
  queue_.Push(std::move(pkt));
  if (!busy_) {
    Transmit();
  } else if (!tx_completion_.valid()) {
    ScheduleCompletion();  // the frame on the wire now has a successor
  }
}

void Port::Retire() {
  queue_bytes_ -= tx_frame_bytes_;
  ++tx_packets_;
  tx_bytes_ += tx_frame_bytes_;
  busy_ns_ += tx_end_ - busy_since_;
  busy_ = false;
}

void Port::Transmit() {
  ProfileScope prof(&owner_->network()->profiler(), serialize_site_);
  PacketPtr pkt = queue_.Pop();
  const TimeNs ser = SerializationTime(pkt->wire_bytes());
  busy_ = true;
  busy_since_ = scheduler_->now();
  tx_end_ = busy_since_ + ser;
  tx_frame_bytes_ = Bytes(pkt->frame_bytes());
  tx_seq_ = scheduler_->ReserveSeq();
  tx_deliveries_ = 0;
  serialize_site_->AddSim(ser);
  owner_->network()->EmitTrace(FlightEventType::kTransmit, *pkt, owner_, this,
                               queue_bytes_ - tx_frame_bytes_);
  // The wire: an attached injector decides the frame's fate now, once, and
  // may lose, duplicate or delay it instead of delivering it.
  if (fault_ != nullptr) {
    fault_->OnWire(this, std::move(pkt));
  } else {
    DeliverToPeer(std::move(pkt), 0);
  }
  if (!queue_.empty()) {
    ScheduleCompletion();
  }
}

void Port::ScheduleCompletion() {
  tx_completion_ =
      scheduler_->ScheduleKeyed(tx_end_, busy_since_, tx_seq_, [this] { OnSerialized(); });
}

void Port::OnSerialized() {
  TFC_CHECK(busy_);
  tx_completion_ = Scheduler::EventId();
  Retire();
  Transmit();
}

void Port::DeliverToPeer(PacketPtr pkt, TimeNs extra_delay) {
  // The packet rides inside the event to the peer port, the ingress of its
  // owner. The Network owns nodes and ports for the whole simulation
  // lifetime. The key is the one the frame's completion would have given
  // it: born at the end of serialization, after every ordinary event born
  // then, in transmission order. That includes the next frame's
  // completion when the completion that ends this frame starts it: if
  // the two fall on one instant, that completion runs first, where the
  // per-hop port ran the delivery first (docs/correctness.md, "Event
  // order").
  TFC_DCHECK(tx_deliveries_ < 2);
  const uint64_t seq = kDeliverySeq | (tx_seq_ << 1) | tx_deliveries_++;
  scheduler_->ScheduleKeyed(tx_end_ + prop_delay_ + extra_delay, tx_end_, seq,
                            PacketEvent<&Port::ReceiveFromPeer>{peer_port_, pkt.release()});
}

void Port::ReceiveFromPeer(PacketPtr pkt) { owner_->Receive(std::move(pkt), this); }

}  // namespace tfc
