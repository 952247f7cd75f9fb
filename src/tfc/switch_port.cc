#include "src/tfc/switch_port.h"

#include <algorithm>
#include <cmath>

#include "src/net/network.h"
#include "src/sim/check.h"

namespace tfc {

TfcPortAgent::TfcPortAgent(Switch* owner, Port* port, const TfcSwitchConfig& config)
    : switch_(owner),
      port_(port),
      config_(config),
      scheduler_(port->scheduler()),
      link_rate_(port->bps()),
      rttb_(config.initial_rttb),
      failover_timer_(scheduler_, [this] { OnFailoverTimer(); }),
      token_(bdp()),
      counter_(config.counter_cap_quanta *
               Tokens::FromBytes(config.delay_quantum)),
      release_timer_(scheduler_, [this] { ReleaseParkedAcks(); }),
      counter_initial_(counter_),
      token_bound_hi_(config.token_boost_cap * bdp()),
      metrics_(&owner->network()->metrics()),
      audit_registration_(&owner->network()->audit(),
                          "tfc.port:" + owner->name() + "." +
                              std::to_string(port->index()),
                          [this](Auditor& a) { AuditInvariants(a); }) {
  TFC_CHECK_GT(port->bps().count(), 0u);
  TFC_CHECK_MSG(config.rho0 > 0.0 && config.rho0 <= 1.0, "rho0=" << config.rho0);
  TFC_CHECK_MSG(config.history_weight >= 0.0 && config.history_weight < 1.0,
                "history_weight=" << config.history_weight);
  // The control-path signals behind the paper's Figs. 6-8, exposed as
  // pull gauges (sampled by the telemetry recorder, free otherwise).
  release_site_ = owner->network()->profiler().Site("tfc.release_parked");
  failover_site_ = owner->network()->profiler().Site("tfc.failover");
  // An agent built for a port that already has one (tests wrap or replace
  // the installed agent) takes over the port's metric names.
  metrics_.set_replace_on_collision(true);
  const std::string prefix =
      "tfc." + owner->name() + ".p" + std::to_string(port->index());
  metrics_.AddCallbackGauge(prefix + ".token_bytes", [this] { return token_.value(); });
  metrics_.AddCallbackGauge(prefix + ".window_bytes", [this] { return window_.value(); });
  metrics_.AddCallbackGauge(prefix + ".effective_flows",
                            [this] { return static_cast<double>(last_E_); });
  metrics_.AddCallbackGauge(prefix + ".rho", [this] { return last_rho_.value(); });
  metrics_.AddCallbackGauge(prefix + ".rtt_b_ns",
                            [this] { return static_cast<double>(rttb_); });
  metrics_.AddCallbackGauge(prefix + ".rtt_m_ns",
                            [this] { return static_cast<double>(rttm_last_); });
  metrics_.AddCallbackGauge(prefix + ".parked_acks",
                            [this] { return static_cast<double>(delay_queue_.size()); });
  metrics_.AddCallbackGauge(prefix + ".delayed_acks_total",
                            [this] { return static_cast<double>(delayed_acks_); });
  metrics_.AddCallbackGauge(prefix + ".slots_completed",
                            [this] { return static_cast<double>(slots_completed_); });
  metrics_.AddCallbackGauge(prefix + ".delimiter_failovers",
                            [this] { return static_cast<double>(delimiter_failovers_); });
  metrics_.AddCallbackGauge(prefix + ".arbiter_expired",
                            [this] { return static_cast<double>(arbiter_expired_); });
  metrics_.AddCallbackGauge(prefix + ".state_wipes",
                            [this] { return static_cast<double>(state_wipes_); });
}

Tokens TfcPortAgent::bdp() const {
  // BitsPerSec x TimeNs -> Tokens: the same bytes_per_ns * (double)ns
  // product the raw code computed (src/sim/units.h).
  return link_rate_ * rttb_;
}

TfcPortAgent* TfcPortAgent::FromPort(Port* port) {
  return dynamic_cast<TfcPortAgent*>(port->agent());
}

// ---------------------------------------------------------------------------
// Data path (egress direction): arrival accounting, slot machinery, stamping.
// ---------------------------------------------------------------------------

void TfcPortAgent::OnEgress(Packet& pkt) {
  arrived_wire_bytes_ += Bytes(pkt.wire_bytes());
  if (!pkt.is_data()) {
    return;
  }

  // Strawman flow counting (D3-style): track connection handshakes. A
  // retransmitted SYN is indistinguishable from a new flow, so the counter
  // accumulates error — the failure mode the paper's Sec. 4.2 describes.
  if (config_.flow_count_mode == FlowCountMode::kSynFin) {
    if (pkt.type == PacketType::kSyn) {
      ++synfin_count_;
    } else if (pkt.type == PacketType::kFin && synfin_count_ > 1) {
      --synfin_count_;
    }
  }

  if (pkt.type == PacketType::kFin) {
    // The flow is closing: any of its RMA ACKs still parked in the delay
    // arbiter grant a window nobody will use — destroy them now instead of
    // letting them strand queue slots until age-out.
    PurgeParkedAcks(pkt.flow_id);
    // A FIN of the delimiter flow means its round marks will never return:
    // elect the next RM packet as the new delimiter (Sec. 5.2).
    if (pkt.flow_id == delimiter_flow_) {
      delimiter_closed_ = true;
      want_new_delimiter_ = true;
    }
  }

  if (pkt.rm) {
    if (pkt.flow_id == delimiter_flow_ && !delimiter_closed_) {
      EndSlot(pkt);
    } else if (delimiter_flow_ < 0 || want_new_delimiter_) {
      AdoptDelimiter(pkt);
    } else {
      E_ += std::max<int>(1, pkt.weight);
    }
  }

  if (pkt.type == PacketType::kData) {
    StampWindow(pkt);
  }
}

void TfcPortAgent::StampWindow(Packet& pkt) const {
  // Until the first slot completes *and* rtt_b has actually been measured,
  // this port has no trustworthy allocation: the configured initial rtt_b
  // may overestimate the real RTT by an order of magnitude (e.g. 160 us
  // initial vs ~10 us at 40 Gbps), and windows computed from it would burst
  // several BDPs into the buffer. Hand out just under one frame instead —
  // staying below the delay-arbiter quantum also means a crowd of flows
  // starting together has its very first grants paced by the arbiter rather
  // than all firing one frame into an empty port at once.
  //
  // The double must be clamped into uint32 range *before* the cast: for a
  // fast link with a large rtt_b (100 Gbps x the 160 us initial, or a slot
  // inflated by delimiter silence) 4 BDPs exceeds 2^32 and the unguarded
  // float->int conversion is undefined behavior. SaturatingU32 (units.h) is
  // that clamp, named; the min against kWindowInfinite keeps the stamped
  // value meaning "infinite" rather than merely "huge".
  const uint32_t w =
      (have_window_ && rttb_measured_)
          ? SaturatingU32(std::min(std::max(1.0, std::floor(window_.value())),
                                   static_cast<double>(kWindowInfinite)))
          : (config_.delay_quantum - 1).ToU32Saturating();
  pkt.window = std::min(pkt.window, w);
}

void TfcPortAgent::AdoptDelimiter(const Packet& pkt) {
  if (pkt.flow_id != delimiter_flow_) {
    // rtt_b is the minimum RTT *of the delimiter flow* (Sec. 4.4): tokens
    // use rtt_b and the slot length uses rtt_m of the same flow, so their
    // ratio is ~1 regardless of which flow is chosen. Carrying a previous
    // (shorter-RTT) delimiter's minimum over would permanently undersize
    // the token value relative to the new delimiter's slots. Seed the new
    // minimum from the last measured slot RTT — the right magnitude for
    // this port (unlike the configured initial) and an overestimate that
    // the new delimiter's own samples min-correct within a round or two.
    const TimeNs seed = rttm_last_ > 0 ? rttm_last_ : config_.initial_rttb;
    rttb_ = seed;
  }
  delimiter_flow_ = pkt.flow_id;
  delimiter_closed_ = false;
  want_new_delimiter_ = false;
  // Deliberately keep miss_k_: it only resets on a *successful* slot
  // (EndSlot). If the port's true RTT has inflated past 2^k·rtt_last, each
  // adopted delimiter would otherwise be deposed before completing a slot
  // and the window would never update; the exponential backoff must span
  // adoptions to break that cycle.
  slot_start_ = scheduler_->now();
  slot_start_queue_bytes_ = port_->queue_bytes();
  E_ = std::max<int>(1, pkt.weight);  // the adopting RM starts the slot
  arrived_wire_bytes_ = Bytes(pkt.wire_bytes());
  if (Network* net = switch_->network(); net->TraceActive()) {
    net->EmitFlight(ControlFlightEvent(FlightEventType::kDelimiterAdopt,
                                       switch_->id(), port_->index(),
                                       delimiter_flow_));
    FlightEvent begin = ControlFlightEvent(FlightEventType::kSlotBegin,
                                           switch_->id(), port_->index(),
                                           delimiter_flow_);
    begin.seq = static_cast<uint64_t>(E_);
    net->EmitFlight(begin);
  }
  ArmFailover();
}

void TfcPortAgent::EndSlot(const Packet& pkt) {
  const TimeNs now = scheduler_->now();
  const TimeNs rtt_m = now - slot_start_;
  if (rtt_m <= 0) {
    return;  // degenerate zero-length slot; keep accumulating
  }

  // rtt_b only learns from full-size frames (Sec. 4.4): store-and-forward
  // latency depends on frame length, so small probes would bias it low.
  // The slot interval includes the time the slot-opening RM spent in *this*
  // port's queue — a queueing component the switch can observe directly and
  // subtract, rather than relying on the min alone to catch an empty-queue
  // round. Without this correction a standing queue feeds itself: rtt_b
  // absorbs the queueing delay, which inflates the token value, which
  // sustains the queue (remote hops' queueing is still handled by the min).
  if (Bytes(pkt.frame_bytes()) >= config_.rtt_measure_min_frame) {
    const TimeNs local_wait = TimeNs(
        static_cast<double>(slot_start_queue_bytes_.count()) / link_rate_.bytes_per_ns());
    const TimeNs candidate = std::max(rtt_m - local_wait, rtt_m / 8);
    rttb_measured_ = true;
    rttb_ = std::min(rttb_, candidate);
  }

  // The RM ending this slot belongs to the next one; account it there.
  const Bytes slot_bytes = arrived_wire_bytes_ - Bytes(pkt.wire_bytes());

  // ρ[n] = A[n] / (c · rtt_m[n])  — Sec. 4.5. Measured traffic (Bytes)
  // enters the token dimension through the explicit FromBytes boundary.
  const Tokens capacity = link_rate_ * rtt_m;
  Ratio rho = Tokens::FromBytes(slot_bytes) / capacity;
  rho = std::max<double>(rho, config_.rho_floor);

  // Token adjustment (Eq. 7) with engineering clamps, then EWMA (Eq. 8).
  // The upper clamp is floored at one quantum: after a delimiter handover
  // re-seeds rtt_b from an anomalously short slot, token_boost_cap * bdp can
  // drop below one frame, which would invert the clamp bounds (UB) and
  // allocate less than the arbiter's release unit.
  const Tokens bdp_now = bdp();
  const Tokens quantum = Tokens::FromBytes(config_.delay_quantum);
  const Tokens bound_hi = std::max(config_.token_boost_cap * bdp_now, quantum);
  Tokens target = config_.enable_token_adjustment
                      ? Tokens(bdp_now.value() * config_.rho0 / rho.value())
                      : bdp_now;
  target = std::clamp(target, quantum, bound_hi);
  token_ = config_.history_weight * token_ + (1.0 - config_.history_weight) * target;
  token_ = std::clamp(token_, quantum, bound_hi);
  last_rho_ = rho;
  token_bound_hi_ = bound_hi;

  // W[n+1] = T[n] / E[n]  (Eq. 5).
  const int effective = config_.flow_count_mode == FlowCountMode::kSynFin
                            ? std::max(1, synfin_count_)
                            : E_;
  const bool was_cold = !have_window_;  // converging from cold start / wipe
  window_ = token_ / static_cast<double>(effective);
  have_window_ = true;
  last_E_ = effective;
  rttm_last_ = rtt_m;
  ++slots_completed_;

  if (on_slot) {
    on_slot(SlotInfo{now, rtt_m, rttb_, E_, rho, token_, window_});
  }

  // Start the next slot; this RM counts as its first effective flow(s).
  E_ = std::max<int>(1, pkt.weight);
  arrived_wire_bytes_ = Bytes(pkt.wire_bytes());
  slot_start_ = now;
  slot_start_queue_bytes_ = port_->queue_bytes();
  miss_k_ = 0;
  if (Network* net = switch_->network(); net->TraceActive()) {
    FlightEvent end = ControlFlightEvent(FlightEventType::kSlotEnd, switch_->id(),
                                         port_->index(), delimiter_flow_);
    end.seq = static_cast<uint64_t>(effective);
    end.a = FlightI32(token_.value());
    end.b = FlightI32(window_.value());
    end.c = FlightI32(rtt_m.count());
    net->EmitFlight(end);
    if (was_cold) {
      FlightEvent conv = ControlFlightEvent(FlightEventType::kAgentConverge,
                                            switch_->id(), port_->index(),
                                            delimiter_flow_);
      conv.a = FlightI32(static_cast<int64_t>(slots_completed_));
      net->EmitFlight(conv);
    }
    FlightEvent begin = ControlFlightEvent(FlightEventType::kSlotBegin,
                                           switch_->id(), port_->index(),
                                           delimiter_flow_);
    begin.seq = static_cast<uint64_t>(E_);
    net->EmitFlight(begin);
  }
  ArmFailover();
}

void TfcPortAgent::ArmFailover() {
  TimeNs base = rttm_last_ > 0 ? rttm_last_ : config_.initial_rttb;
  // In the sub-MSS regime a flow's round is paced by the delay arbiter, not
  // its RTT: one grant per flow per E-grant cycle at ~rho0*c. Deposing the
  // delimiter on an RTT timescale would churn it every round (and each
  // churn re-seeds rtt_b from a load-inflated sample), so size the deadline
  // to the grant cycle instead.
  if (have_window_ && window_ < Tokens::FromBytes(config_.delay_quantum) && last_E_ > 0) {
    base = std::max(base, TimeNs(static_cast<double>(last_E_) *
                                 static_cast<double>(config_.delay_quantum.count()) /
                                 (config_.rho0 * link_rate_.bytes_per_ns())));
  }
  const int k = std::min(miss_k_, config_.max_miss_exponent);
  failover_timer_.RestartAfter(base * (int64_t{1} << (k + 1)));
}

void TfcPortAgent::OnFailoverTimer() {
  ProfileScope prof(&switch_->network()->profiler(), failover_site_);
  // The delimiter flow went silent: catch another RM packet as the new
  // delimiter. Back off exponentially while the port stays idle.
  want_new_delimiter_ = true;
  ++delimiter_failovers_;
  ++miss_k_;
  if (Network* net = switch_->network(); net->TraceActive()) {
    FlightEvent e = ControlFlightEvent(FlightEventType::kDelimiterFailover,
                                       switch_->id(), port_->index(),
                                       delimiter_flow_);
    e.a = miss_k_;
    net->EmitFlight(e);
  }
  if (miss_k_ <= config_.max_miss_exponent) {
    ArmFailover();
  }
}

// ---------------------------------------------------------------------------
// Reverse path: the delay arbiter for windows below one MSS (Sec. 4.6).
// ---------------------------------------------------------------------------

Tokens TfcPortAgent::RefillOver(TimeNs dt) const {
  // Refill at the *target* utilization, not raw line rate: released grants
  // become full frames with preamble/IFG overhead on the wire, and with
  // zero headroom the queue would random-walk into the buffer limit.
  return Tokens(config_.rho0 * link_rate_.bytes_per_ns() * static_cast<double>(dt.count()) *
                (static_cast<double>(config_.delay_quantum.count()) /
                 static_cast<double>((config_.delay_quantum + kWireOverheadBytes).count())));
}

void TfcPortAgent::RefillCounter() {
  const TimeNs now = scheduler_->now();
  const TimeNs dt = now - counter_refill_time_;
  if (dt > 0) {
    const Tokens add = RefillOver(dt);
    counter_ += add;
    refilled_total_ += add;
    counter_refill_time_ = now;
    if (Network* net = switch_->network(); net->TraceActive()) {
      FlightEvent e = ControlFlightEvent(FlightEventType::kTokenRefill,
                                         switch_->id(), port_->index(), -1);
      e.a = FlightI32(add.value());
      e.b = FlightI32(counter_.value());
      net->EmitFlight(e);
    }
  }
  const Tokens cap = config_.counter_cap_quanta * Tokens::FromBytes(config_.delay_quantum);
  if (counter_ > cap) {
    overflow_total_ += counter_ - cap;
    counter_ = cap;
  }
}

bool TfcPortAgent::OnReverse(PacketPtr& pkt) {
  if (!config_.enable_delay_function || !pkt->is_ack() || !pkt->rma ||
      pkt->window == kWindowInfinite) {
    return true;
  }
  RefillCounter();
  const Tokens quantum = Tokens::FromBytes(config_.delay_quantum);
  const Tokens w = Tokens(static_cast<double>(pkt->window));

  if (w >= quantum) {
    // Full windows pass immediately but debit the counter, which throttles
    // the sub-MSS release rate so that the port's total allocation per slot
    // stays within the token value. Bound the debt so a long burst of large
    // windows cannot starve small flows indefinitely.
    counter_ -= w;
    debited_total_ += w;
    const Tokens floor = -config_.token_boost_cap * bdp();
    counter_floor_lo_ = std::min(counter_floor_lo_, floor);
    if (counter_ < floor) {
      forgiven_total_ += floor - counter_;
      counter_ = floor;
    }
    if (Network* net = switch_->network(); net->TraceActive()) {
      FlightEvent e = ControlFlightEvent(FlightEventType::kTokenGrant,
                                         switch_->id(), port_->index(),
                                         pkt->flow_id);
      e.a = FlightI32(w.value());
      e.b = FlightI32(counter_.value());
      net->EmitFlight(e);
    }
    return true;
  }

  // Sub-MSS window: upgrade to one MSS if the counter affords it now (and
  // nobody is already waiting), otherwise park the ACK.
  if (delay_queue_.empty() && counter_ >= quantum) {
    pkt->window = config_.delay_quantum.ToU32Saturating();
    counter_ -= quantum;
    debited_total_ += quantum;
    granted_mss_ += quantum;
    if (Network* net = switch_->network(); net->TraceActive()) {
      FlightEvent e = ControlFlightEvent(FlightEventType::kTokenGrant,
                                         switch_->id(), port_->index(),
                                         pkt->flow_id);
      e.a = FlightI32(quantum.value());
      e.b = FlightI32(counter_.value());
      net->EmitFlight(e);
    }
    return true;
  }
  if (delay_queue_.size() >= config_.delay_queue_limit) {
    pkt->window = config_.delay_quantum.ToU32Saturating();  // fail open rather than drop
    return true;
  }
  const int32_t parked_window = FlightI32(pkt->window);
  const int parked_flow = pkt->flow_id;
  delay_queue_.push_back(ParkedAck{std::move(pkt), scheduler_->now()});
  ++delayed_acks_;
  if (Network* net = switch_->network(); net->TraceActive()) {
    FlightEvent e = ControlFlightEvent(FlightEventType::kArbiterPark,
                                       switch_->id(), port_->index(), parked_flow);
    e.a = parked_window;
    e.c = FlightI32(static_cast<uint64_t>(delay_queue_.size()));
    net->EmitFlight(e);
  }
  ScheduleRelease();
  return false;
}

void TfcPortAgent::ScheduleRelease() {
  if (release_timer_.pending() || delay_queue_.empty()) {
    return;
  }
  // Sleep until the least whole ns at which the counter, refilled at the
  // rate RefillCounter will add, affords a quantum: the pass then releases
  // an ACK instead of waking short and re-arming. Both callers have just
  // refilled, so the refill runs from now. The quotient is rounded, so
  // step it onto the exact ns against RefillOver itself.
  const Tokens quantum = Tokens::FromBytes(config_.delay_quantum);
  const auto affords_after = [&](TimeNs dt) { return counter_ + RefillOver(dt) >= quantum; };
  TimeNs wait = 0;
  if (counter_ < quantum) {
    wait = TimeNs(std::ceil((quantum - counter_).value() / RefillOver(1).value()));
    while (!affords_after(wait)) {
      wait += 1;
    }
    while (wait > 1 && affords_after(wait - 1)) {
      wait -= 1;
    }
  }
  // Never sleep past the park timeout: the release pass is also the expiry
  // pass, so a deeply indebted counter (full-window debt floor) must not
  // delay aging out undeliverable grants.
  if (config_.delay_park_timeout > 0 && wait > config_.delay_park_timeout) {
    wait = config_.delay_park_timeout;
  }
  release_timer_.RestartAfter(wait);
}

void TfcPortAgent::DropParkedAck(PacketPtr pkt) {
  // Parked grants are destroyed without touching the ledger: the debit for
  // a parked ACK only happens at release, so an expired ACK costs nothing.
  ++arbiter_expired_;
  Network* net = switch_->network();
  net->EmitTrace(  // lint:allow packet-drop (arbiter_expired_)
      FlightEventType::kDrop, *pkt, switch_, port_);
  if (net->TraceActive()) {
    FlightEvent e = ControlFlightEvent(FlightEventType::kArbiterExpire,
                                       switch_->id(), port_->index(),
                                       pkt->flow_id);
    e.c = FlightI32(static_cast<uint64_t>(delay_queue_.size()));
    net->EmitFlight(e);
  }
  pkt.reset();
}

void TfcPortAgent::ExpireAgedParkedAcks(TimeNs now) {
  if (config_.delay_park_timeout <= 0) {
    return;
  }
  // Parking order is arrival order, so aged-out entries sit at the front.
  while (!delay_queue_.empty() &&
         now - delay_queue_.front().parked_at >= config_.delay_park_timeout) {
    PacketPtr pkt = std::move(delay_queue_.front().pkt);
    delay_queue_.pop_front();
    DropParkedAck(std::move(pkt));
  }
}

void TfcPortAgent::PurgeParkedAcks(int flow_id) {
  if (delay_queue_.empty()) {
    return;
  }
  for (auto it = delay_queue_.begin(); it != delay_queue_.end();) {
    if (it->pkt->flow_id == flow_id) {
      PacketPtr pkt = std::move(it->pkt);
      it = delay_queue_.erase(it);
      DropParkedAck(std::move(pkt));
    } else {
      ++it;
    }
  }
}

void TfcPortAgent::ReleaseParkedAcks() {
  ProfileScope prof(&switch_->network()->profiler(), release_site_);
  RefillCounter();
  ExpireAgedParkedAcks(scheduler_->now());
  const Tokens quantum = Tokens::FromBytes(config_.delay_quantum);
  while (!delay_queue_.empty() && counter_ >= quantum) {
    PacketPtr pkt = std::move(delay_queue_.front().pkt);
    delay_queue_.pop_front();
    pkt->window = config_.delay_quantum.ToU32Saturating();
    counter_ -= quantum;
    debited_total_ += quantum;
    granted_mss_ += quantum;
    if (Network* net = switch_->network(); net->TraceActive()) {
      FlightEvent e = ControlFlightEvent(FlightEventType::kArbiterRelease,
                                         switch_->id(), port_->index(),
                                         pkt->flow_id);
      e.a = FlightI32(quantum.value());
      e.b = FlightI32(counter_.value());
      net->EmitFlight(e);
    }
    switch_->Forward(std::move(pkt));
  }
  ScheduleRelease();
}

// ---------------------------------------------------------------------------
// Fault path: device reboot (src/net/fault.h).
// ---------------------------------------------------------------------------

void TfcPortAgent::WipeState(std::vector<PacketPtr>* lost) {
  // Parked ACKs are switch memory; they die with the device. The caller
  // (FaultInjector) traces and accounts their destruction.
  for (ParkedAck& parked : delay_queue_) {
    lost->push_back(std::move(parked.pkt));
  }
  delay_queue_.clear();
  failover_timer_.Cancel();
  release_timer_.Cancel();

  // Slot / delimiter machinery back to construction state: the next RM
  // packet is adopted as delimiter and rtt_b re-converges from scratch.
  delimiter_flow_ = -1;
  delimiter_closed_ = false;
  want_new_delimiter_ = true;
  slot_start_ = scheduler_->now();
  rttb_ = config_.initial_rttb;
  rttb_measured_ = false;
  rttm_last_ = 0;
  E_ = 1;
  synfin_count_ = 0;
  arrived_wire_bytes_ = 0;
  slot_start_queue_bytes_ = 0;
  miss_k_ = 0;

  // Allocation state. token_ derives from the freshly reset rtt_b.
  token_ = bdp();
  window_ = Tokens(0.0);
  have_window_ = false;
  last_E_ = 0;

  // Arbiter counter and its conservation ledger restart from zero history.
  // counter_refill_time_ must move to now, or the first post-reboot refill
  // would credit the entire pre-reboot interval.
  counter_ = config_.counter_cap_quanta * Tokens::FromBytes(config_.delay_quantum);
  counter_initial_ = counter_;
  counter_refill_time_ = scheduler_->now();
  refilled_total_ = Tokens(0.0);
  overflow_total_ = Tokens(0.0);
  debited_total_ = Tokens(0.0);
  forgiven_total_ = Tokens(0.0);
  counter_floor_lo_ = Tokens(0.0);
  granted_mss_ = Tokens(0.0);

  last_rho_ = 0.0;
  token_bound_hi_ = std::max(config_.token_boost_cap * bdp(),
                             Tokens::FromBytes(config_.delay_quantum));

  // slots_completed_ / delayed_acks_ / failover counts are simulation-side
  // observability, not device registers: they survive so tests and metrics
  // keep their cumulative meaning across reboots.
  ++state_wipes_;
  if (Network* net = switch_->network(); net->TraceActive()) {
    FlightEvent e = ControlFlightEvent(FlightEventType::kAgentWipe, switch_->id(),
                                       port_->index(), -1);
    e.a = FlightI32(static_cast<int64_t>(state_wipes_));
    net->EmitFlight(e);
  }
}

// ---------------------------------------------------------------------------
// Runtime invariants (paper Secs. 4.2-4.6; see docs/correctness.md).
// ---------------------------------------------------------------------------

void TfcPortAgent::AuditInvariants(Auditor& audit) const {
  const double quantum = static_cast<double>(config_.delay_quantum.count());
  const double cap = config_.counter_cap_quanta * quantum;

  // Token conservation (Sec. 4.6): the arbiter counter must equal its
  // byte-exact ledger — initial credit plus refills, minus cap overflow and
  // grants, plus forgiven debt. Tolerance scales with ledger volume (each
  // double add can lose ~1 ulp). The ledger is held in Tokens; the audit
  // compares the underlying doubles through the named .value() escape.
  const double expected = counter_initial_.value() + refilled_total_.value() -
                          overflow_total_.value() - debited_total_.value() +
                          forgiven_total_.value();
  const double tol = 1e-6 * (1.0 + refilled_total_.value() + debited_total_.value() +
                             overflow_total_.value() + forgiven_total_.value());
  audit.CheckNear(counter_.value(), expected, tol, "counter==ledger balance");

  // Counter bounds: never above the cap (burst bound), never below the
  // lowest full-window debt floor actually applied. (The floor is a function
  // of rtt_b, which min-corrects downward over time — auditing against the
  // *current* floor would flag historical, then-legal debt.)
  audit.CheckLe(counter_.value(), cap + tol, "counter<=cap");
  audit.CheckGe(counter_.value(), counter_floor_lo_.value() - tol, "counter>=debt floor");

  // Sub-MSS grants are paid for: every admitted quantum was debited, so
  // granted tokens can never exceed what the allocator made available.
  audit.CheckLe(granted_mss_.value(), counter_initial_.value() + refilled_total_.value() + tol,
                "granted<=initial+refilled");

  // Token allocator (Secs. 4.4-4.5): positive token within the bound used
  // at its last clamp; window derived from it with E >= 1 consumers.
  audit.Check(token_ > Tokens(0.0), "token>0");
  // Gate on have_window_, not the cumulative slot count: a state wipe
  // clears the per-boot allocation state (rho, window) but deliberately
  // preserves slots_completed_ as a lifetime statistic.
  if (have_window_) {
    audit.CheckLe(token_.value(), token_bound_hi_.value() * (1.0 + 1e-9), "token<=boost cap");
    audit.CheckGe(token_.value(), quantum * (1.0 - 1e-9), "token>=one quantum");
    audit.CheckGe(last_rho_.value(), config_.rho_floor, "rho>=floor");
    audit.CheckLe(window_.value(), token_.value() * (1.0 + 1e-9), "window<=token");
  }
  audit.CheckGe(E_, 1, "effective flows>=1");
  audit.CheckGe(synfin_count_, 0, "synfin count>=0");

  // RTT estimator (Sec. 4.4).
  audit.Check(rttb_ > 0, "rtt_b>0");

  // Delay arbiter queue: bounded, and every parked packet is a live sub-MSS
  // RMA ack (poisoned seq/ack here is a use-after-free of a pooled packet).
  // With expiry enabled no entry may outlive two park timeouts: the release
  // timer fires within one timeout of any park and each firing expires every
  // aged-out entry (they are contiguous at the front, FIFO order).
  audit.CheckLe(delay_queue_.size(), config_.delay_queue_limit, "parked<=limit");
  const TimeNs now = scheduler_->now();
  for (const ParkedAck& parked : delay_queue_) {
    const PacketPtr& p = parked.pkt;
    audit.Check(!IsPoisoned(*p), "parked packet is live (not freed)");
    audit.Check(p->is_ack() && p->rma, "parked packet is an RMA ack");
    audit.Check(static_cast<double>(p->window) < quantum, "parked window<quantum");
    audit.CheckLe(parked.parked_at, now, "parked in the past");
    if (config_.delay_park_timeout > 0) {
      audit.CheckLe(now - parked.parked_at, 2 * config_.delay_park_timeout,
                    "parked age<=2x park timeout");
    }
  }
  // A non-empty park queue must have a release scheduled, or it would
  // starve (ScheduleRelease runs after every park and every drain).
  audit.Check(delay_queue_.empty() || release_timer_.pending(),
              "release timer armed while acks parked");
}

// ---------------------------------------------------------------------------

int InstallTfcSwitches(Network& network, const TfcSwitchConfig& config) {
  int installed = 0;
  for (const auto& node : network.nodes()) {
    auto* sw = dynamic_cast<Switch*>(node.get());
    if (sw == nullptr) {
      continue;
    }
    for (const auto& port : sw->ports()) {
      port->set_agent(std::make_unique<TfcPortAgent>(sw, port.get(), config));
      ++installed;
    }
  }
  return installed;
}

}  // namespace tfc
