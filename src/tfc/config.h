// TFC configuration knobs — switch side and host side. Values the paper
// fixes, and bounds no run varies, are the named constants beside each
// struct.

#ifndef SRC_TFC_CONFIG_H_
#define SRC_TFC_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/net/packet.h"
#include "src/sim/time.h"
#include "src/transport/reliable_sender.h"

namespace tfc {

// Initial rtt_b before any measurement (paper Sec. 5.2: 160 µs).
inline constexpr TimeNs kInitialRttb = Microseconds(160);

// --- engineering bounds the paper leaves implicit ---
// Floor on the measured utilization ρ, so the Eq. 7 boost T·ρ0/ρ cannot
// diverge during a near-idle slot.
inline constexpr double kRhoFloor = 0.05;
// Cap on the token value, as a multiple of c·rtt_b (one BDP). Bounds the
// work-conserving boost while still allowing multi-bottleneck recovery.
inline constexpr double kTokenBoostCap = 4.0;

// Re-elect the delimiter after 2^k·rtt_last of silence, k <= this
// (Sec. 5.2: maximum k is 7).
inline constexpr int kMaxMissExponent = 7;

// Delay-arbiter counter cap, in quanta, bounding the burst of
// simultaneously released sub-MSS flows (Sec. 4.6).
inline constexpr double kCounterCapQuanta = 2.0;

// Per-port switch parameters (paper Sec. 4–5; defaults from Sec. 6.1.1).
// Flows are counted by round marks per slot (Sec. 4.2).
struct TfcSwitchConfig {
  // Target link utilization ρ0 used by the token adjustment (Eq. 7).
  double rho0 = 0.97;
  // Disable to ablate the Sec. 4.5 token adjustment: T = c·rtt_b with no
  // ρ0/ρ scaling (the work-conserving benches show what this costs).
  bool enable_token_adjustment = true;
  // Weight of the history token value in the EWMA (Eq. 8, paper: α = 7/8).
  double history_weight = 7.0 / 8.0;

  // --- RTT measurement ---
  // Only delimiter round-marks whose frame is at least this long update
  // rtt_b (Sec. 4.4: store-and-forward time differs with packet size).
  Bytes rtt_measure_min_frame = 1500;

  // --- delay function for sub-MSS windows (Sec. 4.6) ---
  bool enable_delay_function = true;
  // Release quantum: one full-size frame.
  Bytes delay_quantum = kMtuFrameBytes;
  // Fail-open bound on the number of parked ACKs.
  size_t delay_queue_limit = 1 << 16;
  // Parked RMA ACKs older than this (must be positive) are expired
  // (destroyed) instead of released: the flow they grant to has typically
  // FIN'd or died, and an undeliverable grant parked forever would strand
  // arbiter slots (the sender's own retransmission machinery recovers the
  // flow if it is still alive). Expiry is also run when the data path sees
  // the flow's FIN, which is the common, immediate case.
  TimeNs delay_park_timeout = Milliseconds(10);
};

// After this much idle time a resuming flow re-runs the window-acquisition
// probe instead of bursting its stale window (TfcHostConfig::resume_probe).
inline constexpr TimeNs kResumeIdleThreshold = Microseconds(300);

// Window-acquisition probe retry (robustness to probe/RMA loss). The
// paper assumes the probe's RMA always returns; with real loss a lost
// probe or RMA would otherwise wedge the sender in awaiting_probe_rma_
// until the 200 ms RTO. Instead the sender retries the probe with capped
// exponential backoff: delay = min(base * 2^attempt, cap), each delay
// stretched by Uniform[0, jitter) to de-synchronize retry storms.
inline constexpr TimeNs kProbeRetryBase = Milliseconds(2);
inline constexpr TimeNs kProbeRetryCap = Milliseconds(100);
inline constexpr double kProbeRetryJitter = 0.25;
// Each retry re-sends the probe, which restarts the RTO; the longest retry
// delay must stay below the default minimum RTO, so the RTO never fires
// while a probe is outstanding and the retry timer sends every re-probe.
static_assert(static_cast<double>(kProbeRetryCap.count()) * (1.0 + kProbeRetryJitter) <
                  static_cast<double>(TransportConfig{}.rto_min.count()),
              "a probe retry must come before the RTO");

// Host-side parameters.
struct TfcHostConfig {
  // TFC reacts through switch feedback, not timeouts; the RTO is only a
  // safety net, so the Linux default minimum is kept.
  TransportConfig transport;

  // After kResumeIdleThreshold of idle time a resuming flow re-runs the
  // window-acquisition probe instead of bursting its stale window. Without
  // this, barrier-synchronized workloads (incast rounds) hoard one-MSS
  // grants while idle and fire them simultaneously — n frames hitting one
  // port at once, which overflows the buffer for n in the hundreds. The
  // paper's window acquisition phase covers flow *start*; this extends it
  // to flow *resume* (its Sec. 2 motivates exactly this silent-flow case).
  // Set false for the strictly paper-described behaviour.
  bool resume_probe = true;

  // Weighted-allocation extension (paper Sec. 4.1): this flow counts as
  // `weight` consumers at every switch and scales the granted per-unit
  // window accordingly, so its bandwidth share is weight-proportional.
  // 1 = the paper's equal-share policy.
  uint8_t weight = 1;
};

}  // namespace tfc

#endif  // SRC_TFC_CONFIG_H_
