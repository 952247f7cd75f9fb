// DCTCP sender (Alizadeh et al., SIGCOMM 2010) — the paper's main baseline.
//
// Switch side: ECN marking when the instantaneous queue exceeds K (the net
// layer's Port handles this; topologies enable it via
// LinkOptions::ecn_threshold_bytes — K = 32 KB at 1 Gbps per the paper).
// Host side, implemented here:
//   alpha <- (1-g)*alpha + g*F every window, F = fraction of marked bytes
//   cwnd  <- cwnd * (1 - alpha/2), at most once per window, on ECN echo
// Loss behaviour falls back to the inherited NewReno machinery.

#ifndef SRC_DCTCP_DCTCP_H_
#define SRC_DCTCP_DCTCP_H_

#include "src/tcp/tcp.h"

namespace tfc {

inline constexpr double kDctcpG = 1.0 / 16.0;  // paper's recommended EWMA gain

// Recommended marking threshold at 1 Gbps (paper Sec. 6.1.1: K = 32 KB).
inline constexpr uint64_t kDctcpMarkingThreshold1G = 32 * 1024;
// Scaled threshold used in the 10 Gbps large-scale simulations.
inline constexpr uint64_t kDctcpMarkingThreshold10G = 100 * 1024;

class DctcpSender : public TcpSender {
 public:
  DctcpSender(Network* network, Host* local, Host* remote, const TransportConfig& config);

  double alpha() const { return alpha_; }

 protected:
  bool EcnCapable() const override { return true; }
  void OnAckedData(const Packet& ack, Bytes newly_acked) override;

 private:
  double alpha_ = 1.0;  // start conservative, as the Linux implementation does
  Bytes acked_window_ = 0;
  Bytes marked_window_ = 0;
  uint64_t alpha_update_seq_ = 0;  // update alpha when snd_una passes this
  uint64_t reduce_end_seq_ = 0;    // at most one reduction per window
};

}  // namespace tfc

#endif  // SRC_DCTCP_DCTCP_H_
