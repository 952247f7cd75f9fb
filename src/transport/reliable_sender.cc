#include "src/transport/reliable_sender.h"

#include <algorithm>

#include "src/net/network.h"
#include "src/sim/check.h"

namespace tfc {

ReliableSender::ReliableSender(Network* network, Host* local, Host* remote,
                               const TransportConfig& config)
    : network_(network),
      local_(local),
      remote_(remote),
      config_(config),
      flow_id_(network->AllocateFlowId()),
      rto_(kRtoInitial),
      rto_timer_(&network->scheduler(), [this] { HandleTimeout(); }) {
  TFC_CHECK_NE(local_, remote_);
  local_->RegisterEndpoint(flow_id_, this);
  rto_site_ = network->profiler().Site("transport.rto");
  metrics_.Reset(&network->metrics());
  const std::string prefix = metric_prefix();
  metrics_.AddCallbackGauge(prefix + ".acked_bytes",
                            [this] { return static_cast<double>(snd_una_); });
  // Guard: the receiver is created later by InitializeReceiver, and a
  // recorder with first_delay=0 may sample before data ever flows.
  metrics_.AddCallbackGauge(prefix + ".delivered_bytes", [this] {
    return receiver_ != nullptr ? static_cast<double>(receiver_->delivered_bytes()) : 0.0;
  });
  metrics_.AddCallbackGauge(prefix + ".srtt_ns",
                            [this] { return static_cast<double>(srtt_); });
  metrics_.AddCallbackGauge(prefix + ".timeouts",
                            [this] { return static_cast<double>(stats_.timeouts); });
  metrics_.AddCallbackGauge(prefix + ".retransmits", [this] {
    return static_cast<double>(stats_.retransmits);
  });
}

ReliableSender::~ReliableSender() { local_->UnregisterEndpoint(flow_id_); }

void ReliableSender::InitializeReceiver() {
  TFC_CHECK_EQ(receiver_, nullptr);
  receiver_ = MakeReceiver();
}

std::unique_ptr<ReliableReceiver> ReliableSender::MakeReceiver() {
  return std::make_unique<ReliableReceiver>(network_, remote_, flow_id_,
                                            config_.receive_window);
}

void ReliableSender::Start() {
  TFC_CHECK(state_ == State::kIdle);
  TFC_CHECK(receiver_ != nullptr);  // subclass forgot InitializeReceiver()
  stats_.start_time = network_->scheduler().now();
  state_ = State::kSynSent;
  SendControl(PacketType::kSyn, MarkSyn());
  RestartRtoTimer();
}

void ReliableSender::Write(Bytes bytes) {
  TFC_CHECK(!close_requested_);
  if (bytes == 0) {
    return;
  }
  write_goal_ += static_cast<uint64_t>(bytes.count());
  stats_.bytes_goal = write_goal_;
  drained_notified_ = false;
  OnWrite();
  if (state_ == State::kEstablished) {
    SendAvailable();
  }
}

void ReliableSender::Close() {
  close_requested_ = true;
  MaybeFinish();
}

PacketPtr ReliableSender::MakePacket(PacketType type) const {
  PacketPtr pkt = network_->AllocatePacket();
  pkt->flow_id = flow_id_;
  pkt->src = local_->id();
  pkt->dst = remote_->id();
  pkt->type = type;
  pkt->window = kWindowInfinite;
  return pkt;
}

void ReliableSender::SendPacket(PacketPtr pkt) { local_->Send(std::move(pkt)); }

void ReliableSender::SendControl(PacketType type, bool rm) {
  PacketPtr pkt = MakePacket(type);
  pkt->seq = snd_next_;
  pkt->rm = rm;
  pkt->ts = network_->scheduler().now();
  pkt->ecn_capable = EcnCapable();
  SendPacket(std::move(pkt));
}

uint32_t ReliableSender::SendSegment(uint64_t seq, bool retransmission) {
  TFC_DCHECK_LT(seq, write_goal_);
  const uint32_t payload =
      static_cast<uint32_t>(std::min<uint64_t>(config_.mss, write_goal_ - seq));
  PacketPtr pkt = MakePacket(PacketType::kData);
  pkt->seq = seq;
  pkt->payload = payload;
  pkt->ts = network_->scheduler().now();
  pkt->ecn_capable = EcnCapable();
  DecorateData(*pkt, retransmission);
  ++stats_.data_packets_sent;
  if (retransmission) {
    ++stats_.retransmits;
  }
  highest_sent_ = std::max(highest_sent_, seq + payload);
  SendPacket(std::move(pkt));
  // A data segment is now outstanding (the caller may not have advanced
  // snd_next_ yet, so don't consult inflight_bytes() here).
  if (!rto_timer_.pending()) {
    RestartRtoTimer();
  }
  return payload;
}

void ReliableSender::SendAvailable() {
  while (state_ == State::kEstablished) {
    while (snd_next_ < write_goal_ && inflight_bytes() < config_.receive_window &&
           CanSendMore(inflight_bytes())) {
      // Anything below the high-water mark is a go-back-N retransmission.
      snd_next_ += SendSegment(snd_next_, /*retransmission=*/snd_next_ < highest_sent_);
    }
    // Give the application a chance to top up the buffer while the window
    // still has room; loop again if it did.
    if (snd_next_ == write_goal_ && on_tx_buffer_empty && !in_tx_empty_callback_ &&
        CanSendMore(inflight_bytes())) {
      in_tx_empty_callback_ = true;
      on_tx_buffer_empty();
      in_tx_empty_callback_ = false;
      if (snd_next_ < write_goal_) {
        continue;
      }
    }
    break;
  }
  MaybeFinish();
}

void ReliableSender::MaybeFinish() {
  if (close_requested_ && state_ == State::kEstablished && snd_una_ == write_goal_ &&
      snd_next_ == write_goal_) {
    state_ = State::kFinSent;
    SendControl(PacketType::kFin, /*rm=*/false);
    RestartRtoTimer();
  }
}

void ReliableSender::ArmTimerIfNeeded() {
  if (rto_timer_.pending()) {
    return;
  }
  if (inflight_bytes() > 0 || state_ == State::kSynSent || state_ == State::kFinSent) {
    RestartRtoTimer();
  }
}

void ReliableSender::OnReceive(PacketPtr pkt) {
  if (!pkt->is_ack()) {
    return;  // sender half ignores stray data packets
  }
  HandleAck(std::move(pkt));
}

void ReliableSender::SampleRtt(TimeNs sample) {
  if (sample <= 0) {
    return;
  }
  last_rtt_sample_ = sample;
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const TimeNs err = std::abs((srtt_ - sample).count());
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, config_.rto_min, kRtoMax);
}

void ReliableSender::HandleAck(PacketPtr pkt) {
  ++stats_.acks_received;
  if (pkt->ts_echo > 0) {
    SampleRtt(network_->scheduler().now() - pkt->ts_echo);
  }
  OnAckHeader(*pkt);

  switch (pkt->type) {
    case PacketType::kSynAck: {
      if (state_ != State::kSynSent) {
        return;  // duplicate SYNACK
      }
      state_ = State::kEstablished;
      rto_timer_.Cancel();
      OnEstablished();
      SendAvailable();
      ArmTimerIfNeeded();
      return;
    }
    case PacketType::kFinAck: {
      if (state_ != State::kFinSent) {
        return;
      }
      state_ = State::kClosed;
      rto_timer_.Cancel();
      stats_.complete_time = network_->scheduler().now();
      if (on_complete) {
        on_complete();
      }
      return;
    }
    case PacketType::kAck:
      break;
    default:
      return;
  }

  if (state_ != State::kEstablished && state_ != State::kFinSent) {
    return;
  }

  if (pkt->ack > snd_una_) {
    const Bytes newly = Bytes(static_cast<int64_t>(pkt->ack - snd_una_));
    snd_una_ = pkt->ack;
    TFC_CHECK_LE(snd_una_, write_goal_);
    // After a go-back-N rewind, an ACK for old in-flight data can overtake
    // the rewound send point; everything it covers was sent, so jump ahead.
    snd_next_ = std::max(snd_next_, snd_una_);
    stats_.bytes_acked = snd_una_;
    dupacks_ = 0;
    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        in_recovery_ = false;
        OnExitRecovery();
      } else {
        OnPartialAck(newly);
        // NewReno: repair the next hole immediately.
        SendSegment(snd_una_, /*retransmission=*/true);
      }
    }
    OnAckedData(*pkt, newly);
    if (inflight_bytes() == 0) {
      rto_timer_.Cancel();
    } else {
      RestartRtoTimer();
    }
    if (drained() && !drained_notified_) {
      drained_notified_ = true;
      if (on_drained) {
        on_drained();
      }
    }
    SendAvailable();
    return;
  }

  // Potential duplicate ACK (no forward progress while data is in flight).
  if (inflight_bytes() > 0 && pkt->ack == snd_una_) {
    ++dupacks_;
    if (!in_recovery_ && dupacks_ >= kDupackThreshold) {
      in_recovery_ = true;
      recover_ = snd_next_;
      OnEnterRecovery(inflight_bytes());
      SendSegment(snd_una_, /*retransmission=*/true);
    } else if (in_recovery_) {
      OnDuplicateAck();
    }
    SendAvailable();
  }
}

void ReliableSender::BackOffRto() { rto_ = std::min(rto_ * 2, kRtoMax); }

void ReliableSender::HandleTimeout() {
  ProfileScope prof(&network_->profiler(), rto_site_);
  switch (state_) {
    case State::kSynSent: {
      ++stats_.timeouts;
      BackOffRto();
      SendControl(PacketType::kSyn, MarkSyn());
      RestartRtoTimer();
      return;
    }
    case State::kFinSent: {
      ++stats_.timeouts;
      BackOffRto();
      SendControl(PacketType::kFin, /*rm=*/false);
      RestartRtoTimer();
      return;
    }
    case State::kEstablished: {
      if (inflight_bytes() == 0) {
        return;  // nothing to retransmit (TFC's probe has its own retry timer)
      }
      ++stats_.timeouts;
      OnRetransmitTimeout();
      in_recovery_ = false;
      dupacks_ = 0;
      // Go-back-N: rewind and let the window policy re-clock transmission.
      snd_next_ = snd_una_;
      BackOffRto();
      RestartRtoTimer();
      SendAvailable();
      return;
    }
    default:
      return;
  }
}

}  // namespace tfc
