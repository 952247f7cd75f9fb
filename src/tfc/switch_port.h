// TFC per-port switch logic (paper Fig. 3).
//
// One TfcPortAgent guards one egress port of a switch and implements the
// paper's control-path modules:
//   RTT Timer         — delimiter-flow round marks delimit time slots;
//                       rtt_m = slot length, rtt_b = min full-frame slot
//   N Counter         — counts round-marked (RM) arrivals per slot => E[n]
//   Rho Counter       — accumulates arrival bytes per slot => ρ[n]
//   Token Allocator   — T[n] = c·rtt_b·ρ0/ρ[n], EWMA-smoothed (Eqs. 7–8)
//   Window Calculator — W[n+1] = T[n]/E[n], stamped into data packets
//   Delay Arbiter     — parks RMA ACKs carrying W < MSS until a token-bucket
//                       counter affords one MSS, then upgrades them (Sec. 4.6)
//
// The agent is attached to the port via the net layer's PortAgent interface:
// OnEgress sees every packet entering the port's queue (the data direction);
// OnReverse sees every packet the owning switch receives from this port's
// peer (the direction the data path's ACKs travel).

#ifndef SRC_TFC_SWITCH_PORT_H_
#define SRC_TFC_SWITCH_PORT_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "src/net/port.h"
#include "src/net/switch.h"
#include "src/sim/audit.h"
#include "src/sim/timer.h"
#include "src/sim/units.h"
#include "src/tfc/config.h"

namespace tfc {

class TfcPortAgent : public PortAgent {
 public:
  TfcPortAgent(Switch* owner, Port* port, const TfcSwitchConfig& config);

  // PortAgent:
  void OnEgress(Packet& pkt) override;
  bool OnReverse(PacketPtr& pkt) override;
  // Fault hook (src/net/fault.h): device reboot. Every protocol register —
  // delimiter, rtt_b epochs, token/window, the arbiter counter and its
  // ledger — reverts to construction values; parked ACKs are switch memory
  // and are handed to the caller for destruction. The agent then
  // re-converges from live traffic exactly like a cold start.
  void WipeState(std::vector<PacketPtr>* lost) override;

  // Observation snapshot emitted at the end of every time slot.
  struct SlotInfo {
    TimeNs end_time;
    TimeNs rtt_m;      // instantaneous slot length
    TimeNs rtt_b;      // running min RTT (no-queueing estimate)
    int effective_flows;  // E[n]
    Ratio rho;         // measured utilization during the slot
    Tokens token;      // T[n] after EWMA + clamps
    Tokens window;     // W[n+1] = T[n]/E[n]
  };
  std::function<void(const SlotInfo&)> on_slot;

  // --- observers (tests, samplers, benches) ---
  TimeNs rtt_b() const { return rttb_; }
  TimeNs rtt_m() const { return rttm_last_; }
  int last_effective_flows() const { return last_E_; }
  Tokens token() const { return token_; }
  Tokens window() const { return window_; }
  // Raw-double views for stats/test assertions (the named escape hatch).
  double token_bytes() const { return token_.value(); }  // lint:allow units
  double window_bytes() const { return window_.value(); }  // lint:allow units
  bool has_window() const { return have_window_; }
  int delimiter_flow() const { return delimiter_flow_; }
  uint64_t slots_completed() const { return slots_completed_; }
  uint64_t delayed_acks() const { return delayed_acks_; }
  size_t delay_queue_length() const { return delay_queue_.size(); }
  uint64_t delimiter_failovers() const { return delimiter_failovers_; }
  uint64_t arbiter_expired() const { return arbiter_expired_; }
  uint64_t state_wipes() const { return state_wipes_; }
  const TfcSwitchConfig& config() const { return config_; }

  // Convenience downcast for a port known to run TFC (null otherwise).
  static TfcPortAgent* FromPort(Port* port);

  // Runtime-auditor hook (registered with the network's AuditRegistry at
  // construction): per-port token conservation — the delay arbiter's
  // byte-exact ledger, counter and token bounds, rtt/slot-state sanity,
  // and parked-ACK queue consistency. See docs/correctness.md.
  void AuditInvariants(Auditor& audit) const;

 private:
  void AdoptDelimiter(const Packet& pkt);
  void EndSlot(const Packet& pkt);
  void StampWindow(Packet& pkt) const;
  void ArmFailover();
  void OnFailoverTimer();

  // Delay arbiter internals.
  // Tokens the counter gains over `dt`: rho0 * c, wire-adjusted (DESIGN.md
  // §2, decision 2). RefillCounter adds it; ScheduleRelease sleeps by it.
  Tokens RefillOver(TimeNs dt) const;
  void RefillCounter();
  void ScheduleRelease();
  void ReleaseParkedAcks();
  // Expires parked ACKs older than delay_park_timeout (they sit at the
  // queue front: parking order is arrival order).
  void ExpireAgedParkedAcks(TimeNs now);
  // Destroys parked ACKs granting to `flow_id` (its FIN passed the data
  // path: the grant can never be used).
  void PurgeParkedAcks(int flow_id);
  void DropParkedAck(PacketPtr pkt);
  Tokens bdp() const;  // c · rtt_b (fractional bytes)

  Switch* switch_;
  Port* port_;
  TfcSwitchConfig config_;
  Scheduler* scheduler_;
  BitsPerSec link_rate_;  // the guarded port's line rate c

  // Slot / delimiter state.
  int delimiter_flow_ = -1;
  bool delimiter_closed_ = false;
  bool want_new_delimiter_ = true;
  TimeNs slot_start_ = 0;
  TimeNs rttb_;
  bool rttb_measured_ = false;
  TimeNs rttm_last_ = 0;
  int E_ = 1;
  int synfin_count_ = 0;  // only maintained in FlowCountMode::kSynFin
  Bytes arrived_wire_bytes_ = 0;
  Bytes slot_start_queue_bytes_ = 0;
  int miss_k_ = 0;
  Timer failover_timer_;

  // Allocation state.
  Tokens token_;
  Tokens window_;
  bool have_window_ = false;
  int last_E_ = 0;
  uint64_t slots_completed_ = 0;

  // Delay arbiter state.
  struct ParkedAck {
    PacketPtr pkt;
    TimeNs parked_at;
  };
  Tokens counter_;
  TimeNs counter_refill_time_ = 0;
  std::deque<ParkedAck> delay_queue_;
  Timer release_timer_;
  uint64_t delayed_acks_ = 0;
  uint64_t arbiter_expired_ = 0;  // parked ACKs destroyed (FIN purge + age-out)

  // Resilience statistics.
  uint64_t delimiter_failovers_ = 0;
  uint64_t state_wipes_ = 0;

  // Token-conservation ledger (audited): every token entering or leaving
  // counter_ is recorded, so the auditor can re-derive the counter from the
  // ledger and verify that tokens granted never exceed tokens the allocator
  // made available:
  //   counter == initial + refilled - overflow - debited + forgiven.
  // All entries are Tokens: the dimension check is the point — Bytes of
  // measured traffic only enter through Tokens::FromBytes.
  Tokens counter_initial_;      // the construction-time counter value
  Tokens refilled_total_;       // RefillCounter additions (at rho0 * c)
  Tokens overflow_total_;       // refill discarded at the counter cap
  Tokens debited_total_;        // grants charged (full windows + quanta)
  Tokens forgiven_total_;       // debt discarded at the counter floor
  Tokens counter_floor_lo_;     // lowest debt floor ever applied
  Tokens granted_mss_;          // sub-MSS upgrades admitted (paper Sec. 4.6)

  // Observation state for the auditor.
  Ratio last_rho_ = 0.0;
  Tokens token_bound_hi_;  // the upper clamp applied at the last EndSlot

  // Shared profiler sites ("tfc.release_parked", "tfc.failover").
  ProfileSite* release_site_ = nullptr;
  ProfileSite* failover_site_ = nullptr;

  // Keep these last: registered with Network::audit()/metrics(); their
  // callbacks capture `this`, so they must unregister (and thus be
  // destroyed) before any state the callbacks read.
  // Metric gauges "tfc.<switch>.p<index>.*": the exact signals behind the
  // paper's Figs. 6-8 (token counter, N, rho, rtt_b, parked-ACK queue).
  ScopedMetrics metrics_;
  ScopedAudit audit_registration_;
};

// Attaches a TfcPortAgent to every port of every switch in the network.
// Must run after all links are created. Returns the number of agents.
int InstallTfcSwitches(Network& network, const TfcSwitchConfig& config = TfcSwitchConfig());

}  // namespace tfc

#endif  // SRC_TFC_SWITCH_PORT_H_
