#include "src/dctcp/dctcp.h"

#include <algorithm>

namespace tfc {

DctcpSender::DctcpSender(Network* network, Host* local, Host* remote,
                         const TransportConfig& config)
    : TcpSender(network, local, remote, config) {
  metrics_.AddCallbackGauge(metric_prefix() + ".alpha", [this] { return alpha_; });
}

void DctcpSender::OnAckedData(const Packet& ack, Bytes newly_acked) {
  acked_window_ += newly_acked;
  if (ack.ecn_echo) {
    marked_window_ += newly_acked;
    // React once per window of data.
    if (acked_bytes() > reduce_end_seq_) {
      const double reduced = cwnd_bytes() * (1.0 - alpha_ / 2.0);
      set_cwnd(reduced);
      set_ssthresh(std::max(reduced, 2.0 * mss()));
      reduce_end_seq_ = acked_bytes() + static_cast<uint64_t>(inflight_bytes().count());
    }
  } else {
    // Unmarked progress grows the window exactly like TCP.
    GrowWindow(newly_acked);
  }

  if (acked_bytes() > alpha_update_seq_) {
    const double f =
        acked_window_ > 0
            ? static_cast<double>(marked_window_.count()) / static_cast<double>(acked_window_.count())
            : 0.0;
    alpha_ = (1.0 - kDctcpG) * alpha_ + kDctcpG * f;
    acked_window_ = 0;
    marked_window_ = 0;
    alpha_update_seq_ = acked_bytes() + static_cast<uint64_t>(inflight_bytes().count());
  }
}

}  // namespace tfc
