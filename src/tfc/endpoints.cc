#include "src/tfc/endpoints.h"

#include <algorithm>
#include <cmath>

#include "src/net/network.h"

namespace tfc {

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

void TfcReceiver::DecorateAck(const Packet& data, Packet& ack) {
  ReliableReceiver::DecorateAck(data, ack);
  // Only data-packet round marks carry a switch allocation. A marked SYN is
  // counted by switches but not stamped (the flow takes its window with the
  // acquisition probe instead), so the SYNACK must not echo a window.
  if (data.rm && data.type == PacketType::kData) {
    // Echo the minimum window stamped along the path, bounded by our own
    // advertised window (Sec. 5.3).
    ack.rma = true;
    ack.window = std::min(Bytes(data.window), advertised_window()).ToU32Saturating();
  } else {
    // The window field of non-RMA ACKs carries no allocation.
    ack.window = kWindowInfinite;
  }
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

TfcSender::TfcSender(Network* network, Host* local, Host* remote, const TfcHostConfig& config)
    : ReliableSender(network, local, remote, config.transport),
      config_(config),
      probe_timer_(&network->scheduler(), [this] { OnProbeRetryTimer(); }) {
  InitializeReceiver();
  metrics_.AddCallbackGauge(metric_prefix() + ".cwnd_frame_bytes",
                            [this] { return cwnd_frames_; });
  metrics_.AddCallbackGauge(metric_prefix() + ".probes_sent",
                            [this] { return static_cast<double>(probes_sent_); });
  metrics_.AddCallbackGauge(metric_prefix() + ".probe_retries",
                            [this] { return static_cast<double>(probe_retries_); });
}

std::unique_ptr<ReliableReceiver> TfcSender::MakeReceiver() {
  return std::make_unique<TfcReceiver>(network(), remote(), flow_id(),
                                       transport_config().receive_window);
}

Bytes TfcSender::FrameBytesInFlight(Bytes inflight_payload) const {
  const uint32_t mss = transport_config().mss;
  const int64_t packets = (inflight_payload + (mss - 1)) / Bytes(mss);
  return inflight_payload + packets * kHeaderBytes;
}

bool TfcSender::CanSendMore(Bytes inflight_payload) const {
  if (!have_window_) {
    return false;  // window-acquisition phase: hold data until the RMA
  }
  const Bytes frames = FrameBytesInFlight(inflight_payload);
  return static_cast<double>(frames) < cwnd_frames_;
}

void TfcSender::SendProbe() {
  // Zero-payload RM data packet; switches stamp their window into it and the
  // receiver's RMA brings the allocation back (Sec. 4.6).
  PacketPtr pkt = MakePacket(PacketType::kData);
  pkt->seq = acked_bytes();
  pkt->payload = 0;
  pkt->rm = true;
  pkt->weight = config_.weight;
  pkt->ts = network()->scheduler().now();
  ++probes_sent_;
  if (network()->TraceActive()) {
    FlightEvent e = ControlFlightEvent(FlightEventType::kProbeSend, local()->id(),
                                       -1, flow_id());
    e.seq = static_cast<uint64_t>(pkt->seq);
    e.a = probe_attempts_;
    network()->EmitFlight(e);
  }
  SendPacket(std::move(pkt));
  RestartRtoTimer();
  ArmProbeRetry();
}

void TfcSender::ArmProbeRetry() {
  // A lost probe (or its RMA) must not wedge the acquisition phase until the
  // RTO safety net: retry on a capped exponential backoff, jittered so that
  // senders whose probes died together do not retry in lockstep.
  TimeNs delay = kProbeRetryBase;
  for (int i = 0; i < probe_attempts_ && delay < kProbeRetryCap; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, kProbeRetryCap);
  delay += static_cast<TimeNs>(static_cast<double>(delay) * kProbeRetryJitter *
                               network()->rng().Uniform());
  probe_timer_.RestartAfter(delay);
}

void TfcSender::OnProbeRetryTimer() {
  if (state() != State::kEstablished || !awaiting_probe_rma_) {
    // The RMA arrived or the flow moved on (e.g. FIN'd); stop retrying.
    probe_attempts_ = 0;
    return;
  }
  ++probe_attempts_;
  ++probe_retries_;
  if (network()->TraceActive()) {
    FlightEvent e = ControlFlightEvent(FlightEventType::kProbeRetry, local()->id(),
                                       -1, flow_id());
    e.a = probe_attempts_;
    network()->EmitFlight(e);
  }
  SendProbe();  // re-arms the timer with the doubled delay
}

void TfcSender::OnEstablished() {
  awaiting_probe_rma_ = true;
  SendProbe();
}

void TfcSender::OnWrite() {
  const TimeNs now = network()->scheduler().now();
  if (config_.resume_probe && state() == State::kEstablished && inflight_bytes() == 0 &&
      have_window_ && now - last_activity_ > kResumeIdleThreshold) {
    // Resuming after a long silence: the cached window is stale (other flows
    // have absorbed the bandwidth), so re-acquire before bursting.
    have_window_ = false;
    awaiting_probe_rma_ = true;
    SendProbe();
  }
  last_activity_ = now;
}

void TfcSender::OnAckHeader(const Packet& ack) {
  last_activity_ = network()->scheduler().now();
  if (!ack.rma || ack.window == kWindowInfinite) {
    return;
  }
  // The granted window is per allocation unit; a weighted flow holds
  // `weight` units. The delay arbiter guarantees at least one MSS-sized
  // frame; floor at *this sender's* full frame so it can always keep one
  // packet in flight — with jumbo frames the arbiter quantum (configured
  // per switch) may be smaller than one of our packets, and flooring at
  // the default MTU would deadlock the flow.
  const double full_frame = static_cast<double>(transport_config().mss + kHeaderBytes);
  cwnd_frames_ =
      std::max(static_cast<double>(ack.window) * config_.weight, full_frame);
  have_window_ = true;
  awaiting_probe_rma_ = false;
  probe_attempts_ = 0;
  probe_timer_.Cancel();
  if (network()->TraceActive()) {
    FlightEvent e = ControlFlightEvent(FlightEventType::kRmaReceive, local()->id(),
                                       -1, flow_id());
    e.a = FlightI32(ack.window);
    e.b = FlightI32(cwnd_frames_);
    network()->EmitFlight(e);
  }
  // Per Sec. 5.1: after receiving an RMA, mark the next outgoing data packet.
  pending_rm_ = true;
  SendAvailable();
}

void TfcSender::DecorateData(Packet& pkt, bool retransmission) {
  (void)retransmission;
  pkt.weight = config_.weight;
  if (pending_rm_) {
    pkt.rm = true;
    pending_rm_ = false;
  }
  last_activity_ = network()->scheduler().now();
}

void TfcSender::OnRetransmitTimeout() {
  // Restart the round: the RM (or its RMA) may have been lost, and without a
  // new RM the switch would stop counting this flow.
  pending_rm_ = true;
}

}  // namespace tfc
