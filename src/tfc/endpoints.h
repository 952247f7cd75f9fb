// TFC end-host endpoints (paper Sec. 5.1, 5.3).
//
// Sender: marks the first packet of every full window with RM (round mark),
// obtains its congestion window exclusively from RMA-marked ACKs, and runs
// the window-acquisition phase — a zero-payload RM probe right after
// connection establishment — so a new flow learns its fair window before
// injecting any data (Sec. 4.6 "Traffic Bursts").
//
// Receiver: echoes the switch-stamped window of every RM data packet into
// an RMA-marked ACK, min'ed with its advertised window (Sec. 5.3).

#ifndef SRC_TFC_ENDPOINTS_H_
#define SRC_TFC_ENDPOINTS_H_

#include <memory>

#include "src/sim/timer.h"
#include "src/tfc/config.h"
#include "src/transport/reliable_sender.h"

namespace tfc {

class TfcReceiver : public ReliableReceiver {
 public:
  using ReliableReceiver::ReliableReceiver;

 protected:
  void DecorateAck(const Packet& data, Packet& ack) override;
};

class TfcSender : public ReliableSender {
 public:
  TfcSender(Network* network, Host* local, Host* remote, const TfcHostConfig& config);

  // Congestion window assigned by the network, in frame bytes (raw view
  // for stats/tests).
  double cwnd_frame_bytes() const { return cwnd_frames_; }  // lint:allow units
  bool window_acquired() const { return have_window_; }
  uint64_t probes_sent() const { return probes_sent_; }
  // Probes re-sent by the capped-exponential-backoff retry timer (a lost
  // probe or RMA no longer waits for the 200 ms RTO safety net).
  uint64_t probe_retries() const { return probe_retries_; }

 protected:
  bool MarkSyn() const override { return true; }
  bool CanSendMore(Bytes inflight_payload) const override;
  void OnEstablished() override;
  void OnWrite() override;
  void OnAckHeader(const Packet& ack) override;
  void OnRetransmitTimeout() override;
  void DecorateData(Packet& pkt, bool retransmission) override;
  std::unique_ptr<ReliableReceiver> MakeReceiver() override;

 private:
  void SendProbe();
  void ArmProbeRetry();
  void OnProbeRetryTimer();
  Bytes FrameBytesInFlight(Bytes inflight_payload) const;

  TfcHostConfig config_;
  double cwnd_frames_ = 0.0;
  bool have_window_ = false;
  bool awaiting_probe_rma_ = false;
  bool pending_rm_ = false;
  uint64_t probes_sent_ = 0;
  uint64_t probe_retries_ = 0;
  int probe_attempts_ = 0;  // consecutive unanswered probes (backoff exponent)
  TimeNs last_activity_ = 0;
  Timer probe_timer_;
};

}  // namespace tfc

#endif  // SRC_TFC_ENDPOINTS_H_
