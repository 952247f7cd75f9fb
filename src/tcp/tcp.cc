#include "src/tcp/tcp.h"

#include <algorithm>

namespace tfc {

TcpSender::TcpSender(Network* network, Host* local, Host* remote,
                     const TransportConfig& config)
    : ReliableSender(network, local, remote, config),
      cwnd_(kInitialCwndSegments * mss()),
      ssthresh_(static_cast<double>(config.receive_window)) {
  InitializeReceiver();
  metrics_.AddCallbackGauge(metric_prefix() + ".cwnd_bytes", [this] { return cwnd_; });
  metrics_.AddCallbackGauge(metric_prefix() + ".ssthresh_bytes",
                            [this] { return ssthresh_; });
}

bool TcpSender::CanSendMore(Bytes inflight_payload) const {
  return static_cast<double>(inflight_payload) < cwnd_;
}

void TcpSender::GrowWindow(Bytes newly_acked) {
  // Appropriate Byte Counting (RFC 3465, L = 2): a single cumulative ACK
  // covering many segments must not grow the window as if each segment had
  // been acknowledged separately.
  const double acked = std::min(static_cast<double>(newly_acked), 2.0 * mss());
  if (cwnd_ < ssthresh_) {
    // Slow start: one MSS per MSS acknowledged (byte counting).
    cwnd_ += acked;
    cwnd_ = std::min(cwnd_, ssthresh_ + mss());
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    cwnd_ += mss() * acked / cwnd_;
  }
}

void TcpSender::OnAckedData(const Packet& ack, Bytes newly_acked) {
  (void)ack;
  GrowWindow(newly_acked);
}

void TcpSender::OnDuplicateAck() {
  // Window inflation during fast recovery: each dup ACK signals a departed
  // segment, so allow one more into the pipe.
  cwnd_ += mss();
}

void TcpSender::OnEnterRecovery(Bytes flight_size) {
  ssthresh_ = std::max(static_cast<double>(flight_size) / 2.0, 2.0 * mss());
  cwnd_ = ssthresh_ + 3.0 * mss();
}

void TcpSender::OnPartialAck(Bytes newly_acked) {
  // NewReno deflation: remove the acked data from the inflated window, then
  // allow one new segment.
  cwnd_ = std::max(min_cwnd(), cwnd_ - static_cast<double>(newly_acked) + mss());
}

void TcpSender::OnExitRecovery() { cwnd_ = std::max(ssthresh_, min_cwnd()); }

void TcpSender::OnRetransmitTimeout() {
  ssthresh_ = std::max(static_cast<double>(inflight_bytes()) / 2.0, 2.0 * mss());
  cwnd_ = min_cwnd();
}

}  // namespace tfc
