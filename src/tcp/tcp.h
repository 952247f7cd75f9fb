// TCP NewReno sender (the paper's "TCP" baseline).
//
// Slow start / congestion avoidance on a byte-granularity cwnd, fast
// retransmit + NewReno recovery with window inflation, multiplicative
// backoff on RTO. Loss-driven only; ECN bits are ignored.

#ifndef SRC_TCP_TCP_H_
#define SRC_TCP_TCP_H_

#include "src/transport/reliable_sender.h"

namespace tfc {

inline constexpr double kInitialCwndSegments = 3.0;  // Linux 2.6.38-era IW
inline constexpr double kMinCwndSegments = 1.0;

class TcpSender : public ReliableSender {
 public:
  TcpSender(Network* network, Host* local, Host* remote, const TransportConfig& config);

  double cwnd_bytes() const { return cwnd_; }
  double ssthresh_bytes() const { return ssthresh_; }

 protected:
  bool CanSendMore(Bytes inflight_payload) const override;
  void OnAckedData(const Packet& ack, Bytes newly_acked) override;
  void OnDuplicateAck() override;
  void OnEnterRecovery(Bytes flight_size) override;
  void OnPartialAck(Bytes newly_acked) override;
  void OnExitRecovery() override;
  void OnRetransmitTimeout() override;

  // Additive/multiplicative pieces exposed so DCTCP can reuse them.
  void GrowWindow(Bytes newly_acked);
  double mss() const { return static_cast<double>(transport_config().mss); }
  double min_cwnd() const { return kMinCwndSegments * mss(); }
  void set_cwnd(double cwnd) { cwnd_ = std::max(cwnd, min_cwnd()); }
  void set_ssthresh(double v) { ssthresh_ = v; }

 private:
  double cwnd_;
  double ssthresh_;
};

}  // namespace tfc

#endif  // SRC_TCP_TCP_H_
