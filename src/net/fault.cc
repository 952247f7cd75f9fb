#include "src/net/fault.h"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <system_error>
#include <utility>

#include "src/net/host.h"
#include "src/net/network.h"
#include "src/net/node.h"
#include "src/net/port.h"
#include "src/sim/check.h"

namespace tfc {

namespace {

// Far enough that "no stop configured" timelines never hit it, small enough
// that start+dwell arithmetic cannot overflow.
constexpr TimeNs kNoStop = std::numeric_limits<TimeNs>::max() / 4;

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (true) {
    const size_t end = s.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(s.substr(begin));
      return parts;
    }
    parts.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseProb(const std::string& s, double* out) {
  double v = 0.0;
  if (!ParseDouble(s, &v) || !(v >= 0.0 && v <= 1.0)) {  // rejects NaN too
    return false;
  }
  *out = v;
  return true;
}

// Durations: "500" (ns), "20us", "5ms", "1.5s".
bool ParseDuration(const std::string& s, TimeNs* out) {
  if (s.empty()) {
    return false;
  }
  double scale = 1.0;
  std::string num = s;
  auto strip = [&num](size_t n) { num.resize(num.size() - n); };
  if (num.size() > 2 && num.compare(num.size() - 2, 2, "ns") == 0) {
    strip(2);
  } else if (num.size() > 2 && num.compare(num.size() - 2, 2, "us") == 0) {
    scale = 1e3;
    strip(2);
  } else if (num.size() > 2 && num.compare(num.size() - 2, 2, "ms") == 0) {
    scale = 1e6;
    strip(2);
  } else if (num.size() > 1 && num.back() == 's') {
    scale = 1e9;
    strip(1);
  }
  double v = 0.0;
  if (!ParseDouble(num, &v) || !(v >= 0.0) || !FitsTimeNs(v * scale)) {
    return false;  // negative, NaN, inf, or past int64 nanoseconds
  }
  *out = static_cast<TimeNs>(v * scale);
  return true;
}

}  // namespace

bool FaultSpec::Parse(const std::string& text, FaultSpec* out, std::string* error) {
  FaultSpec spec;
  for (const std::string& item : Split(text, ',')) {
    if (item.empty()) {
      continue;
    }
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      *error = "fault-spec: missing '=' in '" + item + "'";
      return false;
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    bool ok = true;
    if (key == "drop") {
      ok = ParseProb(val, &spec.profile.drop_prob);
    } else if (key == "dup") {
      ok = ParseProb(val, &spec.profile.dup_prob);
    } else if (key == "reorder") {
      ok = ParseProb(val, &spec.profile.reorder_prob);
    } else if (key == "reorder_delay") {
      ok = ParseDuration(val, &spec.profile.reorder_max_delay);
    } else if (key == "ge") {
      const std::vector<std::string> parts = Split(val, '/');
      ok = parts.size() == 3 && ParseProb(parts[0], &spec.profile.ge_enter_bad) &&
           ParseProb(parts[1], &spec.profile.ge_exit_bad) &&
           ParseProb(parts[2], &spec.profile.ge_drop_bad);
    } else if (key == "flap") {
      const std::vector<std::string> parts = Split(val, '/');
      ok = parts.size() == 2 && ParseDuration(parts[0], &spec.flap_mean_up) &&
           ParseDuration(parts[1], &spec.flap_mean_down) && spec.flap_mean_up > 0 &&
           spec.flap_mean_down > 0;
    } else if (key == "wipe") {
      ok = ParseDuration(val, &spec.wipe_period) && spec.wipe_period > 0;
    } else if (key == "host_down") {
      const std::vector<std::string> parts = Split(val, '+');
      ok = parts.size() == 2 && ParseDuration(parts[0], &spec.host_down_at) &&
           ParseDuration(parts[1], &spec.host_down_for) && spec.host_down_for > 0;
    } else if (key == "start") {
      ok = ParseDuration(val, &spec.profile.active_from);
    } else if (key == "stop") {
      ok = ParseDuration(val, &spec.profile.active_until);
    } else if (key == "seed") {
      // from_chars, unlike strtoull, rejects a sign, spaces and overflow.
      const char* end = val.data() + val.size();
      const auto [ptr, ec] = std::from_chars(val.data(), end, spec.seed);
      ok = ec == std::errc() && ptr == end;
    } else {
      *error = "fault-spec: unknown key '" + key + "'";
      return false;
    }
    if (!ok) {
      *error = "fault-spec: bad value for '" + key + "': '" + val + "'";
      return false;
    }
  }
  if (spec.profile.reorder_prob > 0 && spec.profile.reorder_max_delay == 0) {
    *error = "fault-spec: 'reorder' needs 'reorder_delay' > 0";
    return false;
  }
  if (spec.profile.reorder_max_delay > Port::kMaxDelay) {
    *error = "fault-spec: 'reorder_delay' must be at most 2s";
    return false;
  }
  *out = spec;
  return true;
}

FaultInjector::FaultInjector(Network* net, uint64_t seed) : net_(net), rng_(seed) {
  RegisterMetrics();
}

FaultInjector::~FaultInjector() {
  for (std::vector<PortState>& ports : states_) {
    for (PortState& st : ports) {
      if (st.port != nullptr && st.port->fault_injector() == this) {
        st.port->set_fault_injector(nullptr);
      }
    }
  }
  Scheduler& sched = net_->scheduler();
  for (Scheduler::EventId id : timeline_) {
    sched.CancelDaemon(id);  // fired/cancelled ids are safe no-ops
  }
}

void FaultInjector::RegisterMetrics() {
  metrics_.Reset(&net_->metrics());
  metrics_.AddCallbackGauge("fault.drops",
                            [this] { return static_cast<double>(drops_); });
  metrics_.AddCallbackGauge("fault.random_drops",
                            [this] { return static_cast<double>(random_drops_); });
  metrics_.AddCallbackGauge("fault.burst_drops",
                            [this] { return static_cast<double>(burst_drops_); });
  metrics_.AddCallbackGauge("fault.filtered_drops",
                            [this] { return static_cast<double>(filtered_drops_); });
  metrics_.AddCallbackGauge("fault.link_drops",
                            [this] { return static_cast<double>(link_drops_); });
  metrics_.AddCallbackGauge("fault.dups", [this] { return static_cast<double>(dups_); });
  metrics_.AddCallbackGauge("fault.reorders",
                            [this] { return static_cast<double>(reorders_); });
  metrics_.AddCallbackGauge("fault.agent_wipes",
                            [this] { return static_cast<double>(agent_wipes_); });
  metrics_.AddCallbackGauge("fault.wiped_parked_acks",
                            [this] { return static_cast<double>(wiped_parked_acks_); });
  metrics_.AddCallbackGauge("fault.link_transitions",
                            [this] { return static_cast<double>(link_transitions_); });
  metrics_.AddCallbackGauge("fault.host_transitions",
                            [this] { return static_cast<double>(host_transitions_); });
  metrics_.AddCallbackGauge("fault.link_down_ns",
                            [this] { return static_cast<double>(link_down_ns()); });
}

FaultInjector::PortState& FaultInjector::State(Port* port) {
  const auto node = static_cast<size_t>(port->owner()->id());
  const auto index = static_cast<size_t>(port->index());
  if (node >= states_.size()) {
    states_.resize(node + 1);
  }
  std::vector<PortState>& ports = states_[node];
  if (index >= ports.size()) {
    ports.resize(index + 1);
  }
  PortState& st = ports[index];
  if (st.port == nullptr) {
    st.port = port;
    port->set_fault_injector(this);
  }
  return st;
}

const FaultInjector::PortState* FaultInjector::Find(const Port* port) const {
  const auto node = static_cast<size_t>(port->owner()->id());
  const auto index = static_cast<size_t>(port->index());
  if (node >= states_.size() || index >= states_[node].size()) {
    return nullptr;
  }
  const PortState& st = states_[node][index];
  return st.port != nullptr ? &st : nullptr;
}

void FaultInjector::Attach(Port* port, const FaultProfile& profile) {
  TFC_CHECK_LE(profile.reorder_max_delay, Port::kMaxDelay);
  PortState& st = State(port);
  st.profile = profile;
  st.attached = true;
  st.ge_bad = false;
}

void FaultInjector::DropMatching(Port* port, PacketFilter filter) {
  State(port).filter = std::move(filter);
}

void FaultInjector::ClearFilter(Port* port) {
  if (Find(port) != nullptr) {
    State(port).filter = PacketFilter();
  }
}

void FaultInjector::SetLinkDown(Port* port, bool down) {
  PortState& st = State(port);
  if (st.down == down) {
    return;
  }
  const TimeNs now = net_->scheduler().now();
  st.down = down;
  ++link_transitions_;
  if (down) {
    st.down_since = now;
  } else {
    st.down_accum += now - st.down_since;
  }
  if (net_->TraceActive()) {
    net_->EmitFlight(ControlFlightEvent(
        down ? FlightEventType::kLinkDown : FlightEventType::kLinkUp,
        port->owner()->id(), port->index(), -1));
  }
}

void FaultInjector::SetDuplexDown(Port* port, bool down) {
  SetLinkDown(port, down);
  if (port->peer_port() != nullptr) {
    SetLinkDown(port->peer_port(), down);
  }
}

bool FaultInjector::link_down(Port* port) const {
  const PortState* st = Find(port);
  return st != nullptr && st->down;
}

TimeNs FaultInjector::link_down_ns() const {
  const TimeNs now = net_->scheduler().now();
  TimeNs total = 0;
  for (const std::vector<PortState>& ports : states_) {
    for (const PortState& st : ports) {
      total += st.down_accum + (st.down ? now - st.down_since : 0);
    }
  }
  return total;
}

template <typename F>
void FaultInjector::ScheduleDaemon(TimeNs at, F&& fn) {
  Scheduler& sched = net_->scheduler();
  const TimeNs now = sched.now();
  timeline_.push_back(sched.ScheduleDaemonAfter(at > now ? at - now : 0, std::forward<F>(fn)));
}

void FaultInjector::ScheduleLinkDown(Port* port, TimeNs at, TimeNs duration, bool duplex) {
  TFC_CHECK_GT(duration, 0);
  ScheduleDaemon(at, [this, port, duplex] {
    if (duplex) {
      SetDuplexDown(port, true);
    } else {
      SetLinkDown(port, true);
    }
  });
  ScheduleDaemon(at + duration, [this, port, duplex] {
    if (duplex) {
      SetDuplexDown(port, false);
    } else {
      SetLinkDown(port, false);
    }
  });
}

void FaultInjector::ScheduleFlapping(Port* port, TimeNs mean_up, TimeNs mean_down,
                                     TimeNs start, TimeNs stop) {
  TFC_CHECK_GT(mean_up, 0);
  TFC_CHECK_GT(mean_down, 0);
  if (stop <= 0) {
    stop = kNoStop;
  }
  // The first step "transitions" to up (a no-op), dwells Exp(mean_up), and
  // only then takes the link down — so [start, start+dwell) stays healthy.
  ScheduleDaemon(start, [this, port, mean_up, mean_down, stop] {
    FlapStep(port, mean_up, mean_down, stop, /*to_down=*/false);
  });
}

void FaultInjector::FlapStep(Port* port, TimeNs mean_up, TimeNs mean_down, TimeNs stop,
                             bool to_down) {
  const TimeNs now = net_->scheduler().now();
  if (now >= stop) {
    SetDuplexDown(port, false);  // never strand the link down past the window
    return;
  }
  SetDuplexDown(port, to_down);
  TimeNs dwell =
      static_cast<TimeNs>(rng_.Exponential(static_cast<double>(to_down ? mean_down : mean_up)));
  if (dwell < 1) {
    dwell = 1;
  }
  ScheduleDaemon(now + dwell, [this, port, mean_up, mean_down, stop, to_down] {
    FlapStep(port, mean_up, mean_down, stop, !to_down);
  });
}

void FaultInjector::WipeAgentNow(Port* port) {
  PortAgent* agent = port->agent();
  if (agent == nullptr) {
    return;
  }
  std::vector<PacketPtr> lost;
  agent->WipeState(&lost);
  ++agent_wipes_;
  for (PacketPtr& pkt : lost) {
    ++wiped_parked_acks_;
    ++drops_;
    net_->EmitTrace(FlightEventType::kFaultDrop, *pkt, port->owner(), port,
                    port->queue_bytes());
    pkt.reset();
  }
}

void FaultInjector::SetHostDown(Host* host, bool down) {
  if (host->down() == down) {
    return;
  }
  ++host_transitions_;
  host->set_down(down);
  if (net_->TraceActive()) {
    net_->EmitFlight(ControlFlightEvent(
        down ? FlightEventType::kHostDown : FlightEventType::kHostUp, host->id(),
        -1, -1));
  }
}

void FaultInjector::ScheduleHostOutage(Host* host, TimeNs at, TimeNs duration) {
  TFC_CHECK_GT(duration, 0);
  ScheduleDaemon(at, [this, host] { SetHostDown(host, true); });
  ScheduleDaemon(at + duration, [this, host] { SetHostDown(host, false); });
}

void FaultInjector::WipeTick(std::vector<Port*> targets, size_t next, TimeNs period,
                             TimeNs stop) {
  const TimeNs now = net_->scheduler().now();
  if (targets.empty() || now >= stop) {
    return;
  }
  WipeAgentNow(targets[next % targets.size()]);
  ScheduleDaemon(now + period,
                 [this, targets = std::move(targets), next, period, stop]() mutable {
                   WipeTick(std::move(targets), next + 1, period, stop);
                 });
}

void FaultInjector::ApplySpec(const FaultSpec& spec) {
  // Deterministic target collection: node order is insertion order.
  std::vector<Port*> switch_ports;
  std::vector<Port*> trunk_ports;  // inter-switch, one direction per cable
  std::vector<Host*> hosts;
  for (const auto& node : net_->nodes()) {
    if (node->is_host()) {
      hosts.push_back(static_cast<Host*>(node.get()));
      continue;
    }
    for (const auto& port : node->ports()) {
      if (port->peer() == nullptr) {
        continue;
      }
      switch_ports.push_back(port.get());
      if (!port->peer()->is_host() && node->id() < port->peer()->id()) {
        trunk_ports.push_back(port.get());
      }
    }
  }
  const TimeNs start = spec.profile.active_from;
  const TimeNs stop = spec.profile.active_until > 0 ? spec.profile.active_until : kNoStop;

  if (spec.profile.AnyStochastic()) {
    for (Port* p : switch_ports) {
      Attach(p, spec.profile);
    }
  }
  if (spec.flap_mean_up > 0 && spec.flap_mean_down > 0 && !switch_ports.empty()) {
    const std::vector<Port*>& pool = trunk_ports.empty() ? switch_ports : trunk_ports;
    Port* victim = pool[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    ScheduleFlapping(victim, spec.flap_mean_up, spec.flap_mean_down, start, stop);
  }
  if (spec.wipe_period > 0 && !switch_ports.empty()) {
    ScheduleDaemon(start + spec.wipe_period,
                   [this, switch_ports, period = spec.wipe_period, stop]() mutable {
                     WipeTick(std::move(switch_ports), 0, period, stop);
                   });
  }
  if (spec.host_down_for > 0 && !hosts.empty()) {
    Host* victim = hosts[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(hosts.size()) - 1))];
    ScheduleHostOutage(victim, spec.host_down_at, spec.host_down_for);
  }
}

void FaultInjector::Destroy(Port* port, PacketPtr pkt) {
  ++drops_;
  net_->EmitTrace(FlightEventType::kFaultDrop, *pkt, port->owner(), port,
                  port->queue_bytes() - Bytes(pkt->frame_bytes()));
  pkt.reset();
}

void FaultInjector::OnWire(Port* port, PacketPtr pkt) {
  ++inspected_;
  // A port reaches the injector only through State(), which made its entry.
  PortState& st = states_[static_cast<size_t>(port->owner()->id())]
                         [static_cast<size_t>(port->index())];
  TFC_DCHECK_EQ(st.port, port);
  if (st.down) {
    ++link_drops_;
    Destroy(port, std::move(pkt));
    return;
  }
  if (st.filter && st.filter(*pkt)) {
    ++filtered_drops_;
    Destroy(port, std::move(pkt));
    return;
  }
  TimeNs extra = 0;
  if (st.attached) {
    const FaultProfile& p = st.profile;
    const TimeNs now = net_->scheduler().now();
    const bool active = now >= p.active_from && (p.active_until == 0 || now < p.active_until);
    if (active) {
      if (p.ge_enter_bad > 0 || p.ge_exit_bad > 0) {
        // One chain transition per packet, then drop by the current state.
        if (st.ge_bad) {
          if (rng_.Bernoulli(p.ge_exit_bad)) {
            st.ge_bad = false;
          }
        } else if (rng_.Bernoulli(p.ge_enter_bad)) {
          st.ge_bad = true;
        }
        const double drop_p = st.ge_bad ? p.ge_drop_bad : p.ge_drop_good;
        if (drop_p > 0 && rng_.Bernoulli(drop_p)) {
          ++burst_drops_;
          Destroy(port, std::move(pkt));
          return;
        }
      }
      if (p.drop_prob > 0 && rng_.Bernoulli(p.drop_prob)) {
        ++random_drops_;
        Destroy(port, std::move(pkt));
        return;
      }
      if (p.dup_prob > 0 && rng_.Bernoulli(p.dup_prob)) {
        // The duplicate is a distinct wire packet with the same contents.
        PacketPtr copy = net_->AllocatePacket();
        *copy = *pkt;
        ++dups_;
        port->DeliverToPeer(std::move(copy), 0);
      }
      if (p.reorder_prob > 0 && p.reorder_max_delay > 0 && rng_.Bernoulli(p.reorder_prob)) {
        extra = rng_.UniformInt(1, p.reorder_max_delay.count());
        ++reorders_;
      }
    }
  }
  port->DeliverToPeer(std::move(pkt), extra);
}

// ---------------------------------------------------------------------------
// LivenessWatchdog
// ---------------------------------------------------------------------------

LivenessWatchdog::LivenessWatchdog(Scheduler* scheduler, TimeNs check_period,
                                   TimeNs stall_after)
    : scheduler_(scheduler), period_(check_period), stall_after_(stall_after) {
  TFC_CHECK_GT(period_, 0);
  TFC_CHECK_GT(stall_after_, 0);
}

LivenessWatchdog::~LivenessWatchdog() { Stop(); }

void LivenessWatchdog::Watch(std::string name, ProgressFn progress, DoneFn done) {
  Entry e;
  e.name = std::move(name);
  e.progress = std::move(progress);
  e.done = std::move(done);
  e.last_value = e.progress();
  e.last_change = scheduler_->now();
  entries_.push_back(std::move(e));
}

void LivenessWatchdog::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  const TimeNs now = scheduler_->now();
  for (Entry& e : entries_) {
    e.last_value = e.progress();
    e.last_change = now;
  }
  tick_event_ = scheduler_->ScheduleDaemonAfter(period_, [this] { Tick(); });
}

void LivenessWatchdog::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  scheduler_->CancelDaemon(tick_event_);
  tick_event_ = Scheduler::EventId();
}

void LivenessWatchdog::Tick() {
  ++ticks_;
  const TimeNs now = scheduler_->now();
  for (Entry& e : entries_) {
    if (e.done()) {
      continue;
    }
    const double v = e.progress();
    if (v != e.last_value) {
      e.last_value = v;
      e.last_change = now;
      continue;
    }
    if (now - e.last_change >= stall_after_ && !e.flagged) {
      e.flagged = true;
      flagged_.push_back(e.name);
      // Routed through the TFC_CHECK funnel so armed flight recorders dump
      // the events leading up to the stall before the process dies.
      TFC_CHECK_MSG(!abort_on_stall_, "liveness watchdog: '"
                                          << e.name << "' stalled (no progress for "
                                          << (now - e.last_change) << " ns)");
    }
  }
  tick_event_ = scheduler_->ScheduleDaemonAfter(period_, [this] { Tick(); });
}

std::vector<std::string> LivenessWatchdog::Stalled() {
  std::vector<std::string> out;
  const TimeNs now = scheduler_->now();
  for (Entry& e : entries_) {
    if (e.done()) {
      continue;
    }
    if (now - e.last_change >= stall_after_ && e.progress() == e.last_value) {
      out.push_back(e.name);
    }
  }
  return out;
}

}  // namespace tfc
