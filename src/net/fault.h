// Deterministic, seeded fault injection.
//
// A FaultInjector sits on the wire of selected ports (Port::OnSerialized
// routes every serialized packet through OnWire when an injector is
// attached) and can drop, duplicate, or delay packets under a per-port
// stochastic profile, take links down (outages and flapping), wipe a switch
// port agent's protocol state (the paper-testbed analog of a NetFPGA
// power-cycle), and crash/restart hosts mid-flow. All randomness comes from
// the injector's own Rng, so a fixed (network seed, fault seed) pair
// replays bit-identically; all timeline events are scheduler *daemon*
// events, so an armed injector never keeps drain-mode Run() alive.
//
// Every destroyed packet emits a FlightEventType::kFaultDrop trace event and
// bumps a `fault.*` metric — loss injected here is always observable,
// never silent (tools/lint.py's packet-drop rule enforces that the only
// other loss site in the stack is the tail-drop in Port::Enqueue).
//
// The companion LivenessWatchdog is the detector side: it samples progress
// functions (typically telemetry counters) on a fixed cadence and flags any
// watched entity that is neither done nor making progress — the chaos
// harness's definition of a stuck flow.
//
// Lifetime: the injector must be destroyed *before* the Network it attaches
// to (declare it after the Network). Its destructor detaches every port and
// cancels every pending fault-timeline event.

#ifndef SRC_NET_FAULT_H_
#define SRC_NET_FAULT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/inplace_function.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/sim/telemetry.h"
#include "src/sim/time.h"

namespace tfc {

class Host;
class Network;
class Port;

// Stochastic impairment profile for one port's wire. All probabilities are
// per packet. The Gilbert-Elliott pair (ge_enter_bad, ge_exit_bad) enables
// 2-state burst loss: the chain transitions once per packet and drops with
// ge_drop_bad while in the bad state (ge_drop_good while good, usually 0).
// Stochastic impairments apply only within [active_from, active_until);
// active_until == 0 means no end. Deterministic controls (filters, link
// down, wipes) are not gated by the window.
struct FaultProfile {
  double drop_prob = 0.0;        // i.i.d. corruption-drop
  double dup_prob = 0.0;         // deliver a copy in addition to the original
  double reorder_prob = 0.0;     // delay delivery by Uniform(0, reorder_max_delay]
  TimeNs reorder_max_delay = 0;
  double ge_enter_bad = 0.0;     // P(good -> bad) per packet
  double ge_exit_bad = 0.0;      // P(bad -> good) per packet
  double ge_drop_good = 0.0;
  double ge_drop_bad = 0.0;
  TimeNs active_from = 0;
  TimeNs active_until = 0;       // 0 = forever

  bool AnyStochastic() const {
    return drop_prob > 0 || dup_prob > 0 || reorder_prob > 0 ||
           ge_enter_bad > 0 || ge_drop_good > 0;
  }
};

// Textual fault schedule for `tfcsim --fault-spec` and the chaos harness.
// Comma-separated key=value pairs; durations take ns/us/ms/s suffixes
// (bare numbers are ns). Example:
//
//   drop=0.01,ge=0.02/0.3/0.5,reorder=0.005,reorder_delay=20us,
//   flap=5ms/500us,wipe=10ms,host_down=4ms+1ms,start=1ms,stop=50ms,seed=7
//
// Keys: drop, dup, reorder (probabilities), reorder_delay (duration, at
// most 2s: Port::kMaxDelay),
// ge=ENTER/EXIT/DROPBAD, flap=MEANUP/MEANDOWN (one random inter-switch
// link flaps with exponential dwell times), wipe=PERIOD (round-robin agent
// wipes across switch ports), host_down=AT+FOR (one random host crashes at
// AT for FOR), start/stop (active window for the stochastic profile),
// seed=N (the injector Rng seed used by FaultInjector::ApplySpec callers).
struct FaultSpec {
  FaultProfile profile;
  TimeNs flap_mean_up = 0;
  TimeNs flap_mean_down = 0;
  TimeNs wipe_period = 0;
  TimeNs host_down_at = 0;
  TimeNs host_down_for = 0;
  uint64_t seed = 1;

  // Parses `text` into *out. On failure returns false and sets *error to a
  // human-readable reason (unknown key, malformed value).
  static bool Parse(const std::string& text, FaultSpec* out, std::string* error);
};

class FaultInjector {
 public:
  // Returns true if the packet should be destroyed on the wire.
  using PacketFilter = InplaceFunction<bool(const Packet&), kDefaultInplaceCapacity>;

  FaultInjector(Network* net, uint64_t seed);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- stochastic impairments ---
  void Attach(Port* port, const FaultProfile& profile);
  void Detach(Port* port);

  // Deterministic targeted loss: destroy every wire packet on `port` for
  // which `filter` returns true (tests use this to kill a specific probe or
  // the delimiter's RM packets). The filter may keep mutable state in its
  // capture (e.g. "drop the first N matches").
  void DropMatching(Port* port, PacketFilter filter);
  void ClearFilter(Port* port);

  // --- link failures ---
  // Takes one direction of a link down: packets finishing serialization on
  // `port` are destroyed until the link comes back up. SetDuplexDown also
  // downs the peer's direction.
  void SetLinkDown(Port* port, bool down);
  void SetDuplexDown(Port* port, bool down);
  bool link_down(Port* port) const;
  void ScheduleLinkDown(Port* port, TimeNs at, TimeNs duration, bool duplex = true);
  // Random up/down flapping with exponential dwell times over [start, stop);
  // the link is forced up at stop.
  void ScheduleFlapping(Port* port, TimeNs mean_up, TimeNs mean_down, TimeNs start,
                        TimeNs stop);

  // --- state wipes and host crashes ---
  // Reboots the protocol agent on `port` (PortAgent::WipeState): the agent
  // reverts to construction-time state and any packets it was holding are
  // destroyed (accounted as fault drops). No-op on agentless ports.
  void WipeAgentNow(Port* port);
  void ScheduleAgentWipe(Port* port, TimeNs at);

  // Crashes / restarts a host (Host::set_down): while down the host drops
  // everything it would send or receive.
  void SetHostDown(Host* host, bool down);
  void ScheduleHostOutage(Host* host, TimeNs at, TimeNs duration);

  // Applies a parsed spec to the whole network: the stochastic profile on
  // every switch port, flapping on one rng-chosen inter-switch link,
  // round-robin agent wipes across switch ports, and one rng-chosen host
  // outage. Topology choices draw from the injector's Rng, so the same
  // (topology, spec, seed) triple replays identically.
  void ApplySpec(const FaultSpec& spec);

  // Wire hook, called by Port::OnSerialized for every serialized packet.
  void OnWire(Port* port, PacketPtr pkt);

  // --- statistics (also exported as fault.* metrics) ---
  uint64_t inspected() const { return inspected_; }  // packets seen by OnWire
  uint64_t drops() const { return drops_; }  // all injector-destroyed packets
  uint64_t random_drops() const { return random_drops_; }
  uint64_t burst_drops() const { return burst_drops_; }
  uint64_t filtered_drops() const { return filtered_drops_; }
  uint64_t link_drops() const { return link_drops_; }
  uint64_t dups() const { return dups_; }
  uint64_t reorders() const { return reorders_; }
  uint64_t agent_wipes() const { return agent_wipes_; }
  uint64_t wiped_parked_acks() const { return wiped_parked_acks_; }
  uint64_t link_transitions() const { return link_transitions_; }
  uint64_t host_transitions() const { return host_transitions_; }
  TimeNs link_down_ns() const;  // cumulative, across all links, including open outages

  Rng& rng() { return rng_; }

 private:
  struct PortState {
    Port* port = nullptr;  // back-pointer for detach-on-destruction
    FaultProfile profile;
    bool attached = false;  // profile in force (filters/down work regardless)
    bool ge_bad = false;
    bool down = false;
    TimeNs down_since = 0;
    TimeNs down_accum = 0;
    PacketFilter filter;
  };

  // Deterministic port identity: (owner node id, port index). Keying the
  // state map by this instead of the Port* keeps lookup O(log n) while
  // making iteration order a pure function of the topology — a pointer key
  // would order (and, in an unordered map, bucket) entries by heap address,
  // which varies run-to-run under ASLR and would leak into anything that
  // walks the map (det-pointer-key / det-unordered-iter, tools/astlint.py).
  using PortKey = std::pair<int, int>;
  static PortKey KeyOf(const Port* port);

  // Finds-or-creates the state for `port` and points the port at us.
  PortState& State(Port* port);
  // Destroys a wire packet: trace event + total-drop accounting. Callers
  // bump the per-reason counter themselves.
  void Destroy(Port* port, PacketPtr pkt);
  void FlapStep(Port* port, TimeNs mean_up, TimeNs mean_down, TimeNs stop, bool to_down);
  void WipeTick(std::vector<Port*> targets, size_t next, TimeNs period, TimeNs stop);
  template <typename F>
  void ScheduleDaemon(TimeNs at, F&& fn);
  void RegisterMetrics();

  Network* net_;
  Rng rng_;
  std::map<PortKey, PortState> states_;
  std::vector<Scheduler::EventId> timeline_;  // cancelled on destruction

  uint64_t inspected_ = 0;
  uint64_t drops_ = 0;
  uint64_t random_drops_ = 0;
  uint64_t burst_drops_ = 0;
  uint64_t filtered_drops_ = 0;
  uint64_t link_drops_ = 0;
  uint64_t dups_ = 0;
  uint64_t reorders_ = 0;
  uint64_t agent_wipes_ = 0;
  uint64_t wiped_parked_acks_ = 0;
  uint64_t link_transitions_ = 0;
  uint64_t host_transitions_ = 0;

  // Keep last: gauges capture `this`.
  ScopedMetrics metrics_;
};

// No-progress detector. Each watched entry pairs a progress function
// (monotone value: bytes delivered, a telemetry counter) with a done
// predicate; an entry that is not done and whose progress value has not
// changed for `stall_after` of simulated time is flagged. Flags are sticky
// (flagged() accumulates every entry that ever stalled); Stalled() reports
// the currently-stuck set, so an entry that recovers leaves Stalled() but
// stays on the flagged record. Ticks are daemon events.
class LivenessWatchdog {
 public:
  using ProgressFn = InplaceFunction<double(), kDefaultInplaceCapacity>;
  using DoneFn = InplaceFunction<bool(), kDefaultInplaceCapacity>;

  LivenessWatchdog(Scheduler* scheduler, TimeNs check_period, TimeNs stall_after);
  ~LivenessWatchdog();
  LivenessWatchdog(const LivenessWatchdog&) = delete;
  LivenessWatchdog& operator=(const LivenessWatchdog&) = delete;

  void Watch(std::string name, ProgressFn progress, DoneFn done);

  // Convenience: watch a registry metric by name as the progress value.
  void WatchMetric(MetricRegistry* registry, const std::string& metric_name, DoneFn done);

  void Start();
  void Stop();
  bool running() const { return running_; }

  // When set, a freshly flagged stall aborts the process through the
  // TFC_CHECK funnel — which drains any armed flight recorders to their
  // flight.tfct spills first (src/sim/flight.h). Off by default: tests
  // assert on flagged() instead.
  void set_abort_on_stall(bool abort) { abort_on_stall_ = abort; }
  bool abort_on_stall() const { return abort_on_stall_; }

  // Entities stuck right now (not done, no progress for stall_after).
  // Non-const: evaluates the progress/done callables.
  std::vector<std::string> Stalled();
  // Every entity that was ever flagged as stalled, in flag order.
  const std::vector<std::string>& flagged() const { return flagged_; }
  bool clean() const { return flagged_.empty(); }
  uint64_t ticks() const { return ticks_; }

 private:
  struct Entry {
    std::string name;
    ProgressFn progress;
    DoneFn done;
    double last_value = 0.0;
    TimeNs last_change = 0;
    bool flagged = false;
  };

  void Tick();

  Scheduler* scheduler_;
  TimeNs period_;
  TimeNs stall_after_;
  std::vector<Entry> entries_;
  std::vector<std::string> flagged_;
  uint64_t ticks_ = 0;
  bool running_ = false;
  bool abort_on_stall_ = false;
  Scheduler::EventId tick_event_;
};

}  // namespace tfc

#endif  // SRC_NET_FAULT_H_
