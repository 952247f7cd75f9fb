// Sender half of a flow: connection setup, sliding window, retransmission.
//
// ReliableSender implements the protocol-independent machinery — SYN/FIN
// handshakes, byte-sequence sliding window, RTT estimation (RFC 6298),
// duplicate-ACK fast retransmit with NewReno-style recovery bookkeeping,
// and the retransmission timer — and delegates congestion control to
// subclasses through virtual hooks. TcpSender/DctcpSender/TfcSender only
// implement window policy.
//
// Application API:
//   sender.Write(bytes);   // append bytes to transmit (callable repeatedly)
//   sender.Start();        // connect; data flows once established
//   sender.Close();        // FIN once everything written is acknowledged
//   sender.on_drained      // fired whenever all written bytes are acked
//   sender.on_complete     // fired when the FIN is acknowledged
//
// The sender constructs and owns its peer ReliableReceiver on the remote
// host (the "listening socket"), so creating a sender fully provisions a
// flow.

#ifndef SRC_TRANSPORT_RELIABLE_SENDER_H_
#define SRC_TRANSPORT_RELIABLE_SENDER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/net/host.h"
#include "src/net/packet.h"
#include "src/sim/profile.h"
#include "src/sim/telemetry.h"
#include "src/sim/timer.h"
#include "src/transport/flow_stats.h"
#include "src/transport/reliable_receiver.h"

namespace tfc {

class Network;

inline constexpr TimeNs kRtoMax = Seconds(60);
inline constexpr TimeNs kRtoInitial = Milliseconds(200);
inline constexpr uint32_t kDupackThreshold = 3;

struct TransportConfig {
  uint32_t mss = kMssBytes;            // max payload per segment
  TimeNs rto_min = Milliseconds(200);  // Linux default; DC deployments tune this
  Bytes receive_window = 4 * 1024 * 1024;     // advertised window (payload bytes)
};

class ReliableSender : public Endpoint {
 public:
  enum class State : uint8_t {
    kIdle,
    kSynSent,
    kEstablished,
    kFinSent,
    kClosed,
  };

  ReliableSender(Network* network, Host* local, Host* remote, const TransportConfig& config);
  ~ReliableSender() override;

  // Begins connection establishment (sends SYN).
  void Start();

  // Appends `bytes` to the transmit goal. May be called before Start() and
  // repeatedly afterwards (persistent connections).
  void Write(Bytes bytes);

  // Requests connection close: a FIN goes out once all written bytes are
  // acknowledged.
  void Close();

  void OnReceive(PacketPtr pkt) final;

  // --- observers ---
  const FlowStats& stats() const { return stats_; }
  int flow_id() const { return flow_id_; }
  State state() const { return state_; }
  Host* local() const { return local_; }
  Host* remote() const { return remote_; }
  Bytes inflight_bytes() const { return Bytes(static_cast<int64_t>(snd_next_ - snd_una_)); }
  // Sequence-space positions, not sizes: seq space stays raw uint64.
  uint64_t acked_bytes() const { return snd_una_; }  // lint:allow units
  bool drained() const { return snd_una_ == write_goal_; }
  ReliableReceiver& receiver() { return *receiver_; }
  uint64_t delivered_bytes() const { return receiver_->delivered_bytes(); }  // lint:allow units
  TimeNs srtt() const { return srtt_; }
  TimeNs rto() const { return rto_; }
  // Most recent raw RTT sample (0 before the first ACK).
  TimeNs last_rtt_sample() const { return last_rtt_sample_; }

  std::function<void()> on_drained;
  std::function<void()> on_complete;
  // Fired whenever the transmit buffer runs dry (everything written has been
  // sent, though not necessarily acknowledged). Writing more data from this
  // callback keeps the pipe full with no ACK-drain bubble.
  std::function<void()> on_tx_buffer_empty;

 protected:
  // --- congestion-control hooks ---

  // May the sender emit another segment given current in-flight payload?
  virtual bool CanSendMore(Bytes inflight_payload) const = 0;

  // Whether the SYN carries the TFC round mark.
  virtual bool MarkSyn() const { return false; }

  // Invoked after the connection is established (SYNACK received).
  virtual void OnEstablished() {}

  // Invoked at the start of every Write() (TFC's resume-probe extension).
  virtual void OnWrite() {}

  // Invoked for every arriving ACK before cumulative processing, so
  // protocols can consume header fields (ECN echo, TFC window).
  virtual void OnAckHeader(const Packet& ack) { (void)ack; }

  // Invoked when an ACK advanced snd_una by `newly_acked` bytes.
  virtual void OnAckedData(const Packet& ack, Bytes newly_acked) {
    (void)ack;
    (void)newly_acked;
  }

  // Invoked for every duplicate ACK after the first (window inflation).
  virtual void OnDuplicateAck() {}

  // Invoked when the dup-ACK threshold trips (before the fast retransmit).
  virtual void OnEnterRecovery(Bytes flight_size) { (void)flight_size; }

  // Invoked on a partial ACK while in recovery (NewReno hole repair follows).
  virtual void OnPartialAck(Bytes newly_acked) { (void)newly_acked; }

  // Invoked when recovery completes (snd_una reached the recovery point).
  virtual void OnExitRecovery() {}

  // Invoked on RTO expiry before the go-back-N retransmission.
  virtual void OnRetransmitTimeout() {}

  // Lets protocols stamp outgoing data segments (TFC round marks).
  virtual void DecorateData(Packet& pkt, bool retransmission) {
    (void)pkt;
    (void)retransmission;
  }

  // Whether outgoing data should be ECN-capable (DCTCP).
  virtual bool EcnCapable() const { return false; }

  // Creates the peer receiver; TFC overrides to create a TfcReceiver.
  virtual std::unique_ptr<ReliableReceiver> MakeReceiver();

  // --- services for subclasses ---
  void SendAvailable();                        // pump the send window
  void SendControl(PacketType type, bool rm);  // SYN / FIN / probes
  PacketPtr MakePacket(PacketType type) const;
  void SendPacket(PacketPtr pkt);
  void ArmTimerIfNeeded();
  void RestartRtoTimer() { rto_timer_.RestartAfter(rto_); }
  Network* network() const { return network_; }
  const TransportConfig& transport_config() const { return config_; }

  // Must be called exactly once at the end of each leaf-class constructor
  // (creates the receiver via the MakeReceiver virtual).
  void InitializeReceiver();

  // Telemetry name prefix for this flow: "flow.<id>". The base class
  // registers .acked_bytes/.delivered_bytes/.srtt_ns/.timeouts/.retransmits
  // gauges; congestion-control subclasses add their state (cwnd, alpha)
  // through the same ScopedMetrics so everything unregisters together when
  // the flow is destroyed.
  std::string metric_prefix() const { return "flow." + std::to_string(flow_id_); }
  ScopedMetrics metrics_;

 private:
  void HandleAck(PacketPtr pkt);
  void HandleTimeout();
  // Sends the segment starting at `seq`; returns its payload length.
  uint32_t SendSegment(uint64_t seq, bool retransmission);
  void SampleRtt(TimeNs sample);
  void MaybeFinish();
  void BackOffRto();

  Network* network_;
  Host* local_;
  Host* remote_;
  TransportConfig config_;
  int flow_id_;
  std::unique_ptr<ReliableReceiver> receiver_;

  State state_ = State::kIdle;
  bool close_requested_ = false;

  uint64_t write_goal_ = 0;
  uint64_t snd_una_ = 0;
  uint64_t snd_next_ = 0;
  uint64_t highest_sent_ = 0;

  uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  uint64_t recover_ = 0;

  TimeNs srtt_ = 0;
  TimeNs rttvar_ = 0;
  TimeNs last_rtt_sample_ = 0;
  TimeNs rto_;

  Timer rto_timer_;
  ProfileSite* rto_site_ = nullptr;  // shared "transport.rto" site
  FlowStats stats_;
  bool drained_notified_ = true;
  bool in_tx_empty_callback_ = false;
};

}  // namespace tfc

#endif  // SRC_TRANSPORT_RELIABLE_SENDER_H_
