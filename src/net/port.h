// Output port: drop-tail FIFO queue + attached simplex link.
//
// A full-duplex cable between two nodes is modelled as a pair of Ports, one
// on each node, cross-connected. Each Port owns the transmit queue for its
// direction; serialization occupies the port for wire_bytes*8/bps and the
// packet is delivered to the peer node after an additional propagation
// delay. Packets received *from* the peer are attributed to this Port as
// their ingress, which is what lets per-port protocol agents (TFC) see both
// the data direction (egress enqueue) and the matching reverse ACK stream.
//
// Lazy serialization (docs/perf.md). When a frame starts serializing, the
// port schedules its delivery at once, keyed as if the end of serialization
// had scheduled it (Scheduler::ScheduleKeyed). The frame stays counted in
// the queue until that end passes in event order; the port then retires it
// (queue bytes, tx counters, busy time) when a packet next arrives, and
// every accessor reads the state as of the event being dispatched
// (Scheduler::Passed). A completion event (OnSerialized) runs only when a
// packet waits behind the frame, to start the next one. An attached fault
// injector takes the frame at its start in place of the delivery, so a
// port with one runs this same path.

#ifndef SRC_NET_PORT_H_
#define SRC_NET_PORT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

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
  virtual void WipeState(std::vector<PacketPtr>* lost) { (void)lost; }
};

// A port's transmit queue: an intrusive FIFO of owned packets, linked
// through Packet::next. Push and Pop never allocate. The queue holds its
// packets as released PacketPtrs and re-wraps each on Pop; its destructor
// returns whatever is still queued to the pool.
class PacketFifo {
 public:
  PacketFifo() = default;
  PacketFifo(const PacketFifo&) = delete;
  PacketFifo& operator=(const PacketFifo&) = delete;
  ~PacketFifo() {
    while (!empty()) {
      Pop();
    }
  }

  bool empty() const { return head_ == nullptr; }
  size_t size() const { return size_; }

  void Push(PacketPtr pkt) {
    Packet* p = pkt.release();
    p->next = nullptr;
    if (tail_ == nullptr) {
      head_ = p;
    } else {
      tail_->next = p;
    }
    tail_ = p;
    ++size_;
  }

  PacketPtr Pop() {
    Packet* p = head_;
    head_ = p->next;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    p->next = nullptr;
    --size_;
    return PacketPtr(p);
  }

  // Runtime-auditor hook: walks at most size() + 1 links (a corrupted link
  // cannot loop the walk), checks the count and the tail against the walk,
  // calls `visit` on every queued packet, and checks each one is live.
  template <typename F>
  void AuditInvariants(Auditor& audit, F&& visit) const {
    size_t walked = 0;
    const Packet* last = nullptr;
    for (const Packet* p = head_; p != nullptr && walked <= size_; p = p->next) {
      audit.Check(!IsPoisoned(*p), "queued packet is live (not freed)");
      visit(*p);
      last = p;
      ++walked;
    }
    audit.CheckEq(walked, size_, "fifo length==count");
    audit.Check(last == tail_, "fifo tail is its last packet");
  }

 private:
  Packet* head_ = nullptr;
  Packet* tail_ = nullptr;
  size_t size_ = 0;
};

class Port {
 public:
  // Largest link propagation delay, and largest extra delay a fault
  // injector adds to a delivery. A delivery is keyed with its lead, the
  // time from the end of serialization to its arrival, which must stay
  // below kMaxEventLead (about 4.29 s); two of these fit.
  static constexpr TimeNs kMaxDelay = 2 * kSecond;
  static_assert(2 * kMaxDelay < TimeNs(kMaxEventLead));

  Port(Scheduler* scheduler, Node* owner, int index);
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  // Wires this port to `peer_port`'s owner over a link with the given rate
  // and one-way propagation delay (at most kMaxDelay). Called once by
  // Network::Link.
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

  // Fault injection (src/net/fault.h): when set, every frame that starts
  // serializing is handed to the injector, which may drop, duplicate, or
  // delay it instead of delivering it. Not owned; the injector detaches
  // itself on destruction. Null (the default) costs one branch per packet.
  // A frame already on the wire when an injector attaches is not touched.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }
  FaultInjector* fault_injector() const { return fault_; }

  // Schedules delivery of `pkt`, the frame on the wire here (or a copy of
  // it), to the peer node at the end of its serialization plus this link's
  // propagation delay plus `extra_delay` (the fault injector's reordering
  // lever). The first and second call for one frame take consecutive places
  // in event order. Exposed for the injector; everything else goes through
  // Enqueue.
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
  // queued, and counted, until its serialization completes in event order,
  // whether or not an event runs there).
  Bytes queue_bytes() const { return queue_bytes_ - (FrameDone() ? tx_frame_bytes_ : Bytes(0)); }
  size_t queue_packets() const { return queue_.size() + (busy_ && !FrameDone() ? 1 : 0); }
  Bytes buffer_limit() const { return buffer_limit_bytes_; }

  // Runtime-auditor hook: re-derives queue accounting from the queue's
  // actual contents and checks occupancy against the buffer limit.
  void AuditInvariants(Auditor& audit) const;

  // --- statistics ---
  // Each reads the port as of the event being dispatched, like the queue
  // accessors above.
  uint64_t tx_packets() const { return tx_packets_ + (FrameDone() ? 1 : 0); }
  // Frame bytes.
  Bytes tx_bytes() const { return tx_bytes_ + (FrameDone() ? tx_frame_bytes_ : Bytes(0)); }
  uint64_t drops() const { return drops_; }
  Bytes max_queue_bytes() const { return max_queue_bytes_; }
  uint64_t ecn_marks() const { return ecn_marks_; }
  void ResetMaxQueue() { max_queue_bytes_ = queue_bytes(); }

  // Cumulative time the transmitter spent serializing (simulated time).
  // busy_ns / elapsed = link utilization; docs/observability.md.
  TimeNs busy_ns() const { return busy_ns_ + (FrameDone() ? tx_end_ - busy_since_ : TimeNs(0)); }

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
  // Top bit of a delivery's sequence number. A delivery is born when its
  // frame finishes serializing and sorts after every ordinary event born
  // at that instant; below the top bit, tx_seq_ orders deliveries by
  // transmission and the lowest bit by hand-over (a duplicate the injector
  // makes goes before its original).
  static constexpr uint64_t kDeliverySeq = uint64_t{1} << 63;

  // True when the frame on the wire has finished serializing in event
  // order but is not retired yet.
  bool FrameDone() const {
    return busy_ && scheduler_->Passed(tx_end_, busy_since_, tx_seq_);
  }
  // Takes the finished frame off the books: queue bytes, tx counters, busy
  // time.
  void Retire();
  // Starts serializing the head of the FIFO, records its transmit and
  // hands it to the wire; the transmitter must be idle.
  void Transmit();
  // Schedules the frame's completion event under the key its start
  // reserved; a packet must wait behind the frame.
  void ScheduleCompletion();
  // The completion event: retires the frame and starts the next packet.
  void OnSerialized();
  // The delivery event's handler on the ingress port: hands the packet to
  // this port's owner.
  void ReceiveFromPeer(PacketPtr pkt);
  void RegisterMetrics();

  Scheduler* scheduler_;
  Node* owner_;
  int index_;

  Port* peer_port_ = nullptr;
  Node* peer_node_ = nullptr;
  BitsPerSec bps_ = 0;
  TimeNs prop_delay_ = 0;

  PacketFifo queue_;  // packets waiting behind the frame on the wire
  Bytes queue_bytes_ = 0;  // waiting packets plus the frame until retired
  Bytes buffer_limit_bytes_ = 256 * 1024;
  // Largest limit ever configured; tests shrink the limit mid-run to break
  // paths, so the auditor bounds occupancy by the historical maximum.
  Bytes buffer_limit_hi_bytes_ = 256 * 1024;
  Bytes ecn_threshold_bytes_ = 0;  // 0 = marking disabled
  bool busy_ = false;  // a frame is on the wire and not retired
  uint8_t tx_deliveries_ = 0;  // deliveries scheduled for the frame so far

  std::unique_ptr<PortAgent> agent_;
  FaultInjector* fault_ = nullptr;

  uint64_t tx_packets_ = 0;
  Bytes tx_bytes_ = 0;
  uint64_t drops_ = 0;
  Bytes max_queue_bytes_ = 0;
  uint64_t ecn_marks_ = 0;
  TimeNs busy_ns_ = 0;         // cumulative serialization time
  // The frame on the wire: it started at busy_since_ and ends at tx_end_,
  // and its completion's key is (tx_end_, busy_since_, tx_seq_).
  TimeNs busy_since_ = 0;
  TimeNs tx_end_ = 0;
  Bytes tx_frame_bytes_ = 0;
  uint64_t tx_seq_ = 0;
  Scheduler::EventId tx_completion_;  // the pending completion, if any
  ProfileSite* serialize_site_ = nullptr;  // shared "port.serialize" site

  // Callback-gauge registrations into the network's MetricRegistry (made at
  // Connect time). Keep last: gauges capture `this`.
  ScopedMetrics metrics_;
};

// The event that carries a packet to a port: a delivery to the peer's
// ingress (Port::DeliverToPeer) or a host's delayed departure into its NIC
// (Host::Send). It holds the packet as a raw pointer and re-wraps it in a
// PacketPtr for `Handler` when it runs, so it is trivially copyable and 16
// bytes: the event queue moves it with InplaceFunction's inline copy, not
// an indirect relocate and destroy.
template <void (Port::*Handler)(PacketPtr)>
struct PacketEvent {
  Port* port;
  Packet* pkt;
  void operator()() const { (port->*Handler)(PacketPtr(pkt)); }
};

static_assert(std::is_trivially_copyable_v<PacketEvent<&Port::Enqueue>>,
              "packet events take InplaceFunction's inline-copy path");
static_assert(sizeof(PacketEvent<&Port::Enqueue>) == 16,
              "packet events fit InplaceFunction's 16-byte inline copy");

}  // namespace tfc

#endif  // SRC_NET_PORT_H_
