// Network: owns the scheduler, RNG, nodes, and links; computes routes.
//
// Thread-compatibility contract (docs/correctness.md "Thread safety"):
// a Network and everything it owns — Scheduler, PacketPool, MetricRegistry,
// Profiler, AuditRegistry, FlightRecorder, RNG — is *confined*: one thread
// drives one instance, with no cross-instance shared state, so
// distinct instances run concurrently without synchronization. Embedders
// that drive several Networks from several threads, and the MultiInstance
// tests in tests/sweep_test.cc, rely on exactly this.
//
// Typical construction:
//   Network net(/*seed=*/42);
//   Host* a = net.AddHost("a");
//   Host* b = net.AddHost("b");
//   Switch* s = net.AddSwitch("s");
//   net.Link(a, s, kGbps, Microseconds(20));
//   net.Link(s, b, kGbps, Microseconds(20));
//   net.BuildRoutes();

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/host.h"
#include "src/net/packet_pool.h"
#include "src/net/switch.h"
#include "src/net/trace.h"
#include "src/sim/audit.h"
#include "src/sim/flight.h"
#include "src/sim/profile.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/sim/telemetry.h"

namespace tfc {

inline constexpr BitsPerSec kGbps = 1'000'000'000ull;

struct LinkOptions {
  // Per-port buffer on switch-owned ports (paper testbed: 256 KB/port at
  // 1 Gbps; large-scale simulation: 512 KB at 10 Gbps).
  Bytes switch_buffer_bytes = 256 * 1024;
  // Host NICs get a deep buffer; they are never the experiment bottleneck.
  Bytes host_buffer_bytes = 8 * 1024 * 1024;
  // ECN marking threshold applied to switch-owned ports only (0 = off).
  Bytes ecn_threshold_bytes = 0;
};

class Network {
 public:
  explicit Network(uint64_t seed = 1);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();  // runs a final audit pass when auditing is enabled

  Host* AddHost(std::string name);
  Switch* AddSwitch(std::string name);

  // Creates a full-duplex link (two cross-connected ports) between a and b.
  // Returns the port owned by `a`; its peer_port() is owned by `b`.
  Port* Link(Node* a, Node* b, BitsPerSec bps, TimeNs prop_delay,
             const LinkOptions& opts = LinkOptions());

  // Computes shortest-path next-hop tables for every switch (BFS per
  // destination; every neighbour one hop closer is an equal-cost choice,
  // kept in port order, so the tables are deterministic). Call again after
  // growing the topology.
  void BuildRoutes();

  Scheduler& scheduler() { return scheduler_; }
  Rng& rng() { return rng_; }

  Node* node(int id) const { return nodes_.at(static_cast<size_t>(id)).get(); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }

  int AllocateFlowId() { return next_flow_id_++; }
  // Flow-id-indexed endpoint dispatch shared by every host; transports
  // register through Host::RegisterEndpoint.
  EndpointTable& endpoints() { return endpoints_; }

  // Draws a default-initialized packet from the pool. This is the
  // allocation path every transport send and ACK goes through.
  PacketPtr AllocatePacket() { return packet_pool_.Allocate(); }

  PacketPool& packet_pool() { return packet_pool_; }
  const PacketPool& packet_pool() const { return packet_pool_; }

  // Event tracing: the flight recorder, once armed, keeps the most recent
  // packet and control-plane events in a ring for post-mortem dumps and
  // offline export. A disarmed ring disables tracing (the default): the hot
  // path pays one load and a branch.
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  // True when the ring records events. Control-plane instrumentation gates
  // its event construction on this.
  bool TraceActive() const { return flight_.armed(); }
  // Fills the fixed-width record straight into the claimed ring slot
  // (inline MakePacketEvent, no intermediate copy). Inline so the
  // bench-gated armed cost stays call-free.
  [[gnu::always_inline]] void EmitTrace(FlightEventType type, const Packet& pkt,
                                        const Node* node, const Port* port) {
    if (!flight_.armed()) {
      return;
    }
    const TimeNs now = scheduler_.now();
    *flight_.Append(now) = MakePacketEvent(now, type, pkt, node, port);
  }
  // Records a pre-built control-plane event, stamping the current sim time.
  // Call sites gate on TraceActive() before building the event. Inline so
  // the event is built straight into the claimed slot.
  void EmitFlight(const FlightEvent& event) {
    if (!flight_.armed()) {
      return;
    }
    const TimeNs now = scheduler_.now();
    FlightEvent* slot = flight_.Append(now);
    *slot = event;
    slot->time = now;
  }

  // Resolves an interned node id to its name; empty for unknown ids.
  std::string_view NodeName(int id) const;
  // Snapshots node names and registers the armed ring with the process-wide
  // post-mortem hook: any TFC_CHECK failure (audit violation, watchdog
  // trip) drains it to `path` before aborting.
  void ArmFlightPostMortem(const std::string& path);
  // Drains the armed ring to `path` now (end-of-run export).
  bool DumpFlight(const std::string& path, std::string* error) const;

  // Finds the port on `a` whose peer is `b` (first match); null if none.
  static Port* FindPort(Node* a, Node* b);

  // --- runtime invariant auditing (src/sim/audit.h) ---
  // Components register invariant callbacks here; the network itself
  // registers the scheduler's event queue, the packet pool, and every port.
  AuditRegistry& audit() { return audit_registry_; }

  // Turns on periodic auditing: every `period` of simulated time (and once
  // at teardown) all registered invariants run, aborting with a full report
  // on any violation. Called automatically from the constructor when
  // AuditEnabledByDefault() (TFC_AUDIT preset/env). Idempotent.
  void EnableAudit(TimeNs period = Milliseconds(5));
  bool audit_enabled() const { return audit_enabled_; }
  uint64_t audit_passes() const { return audit_passes_; }

  // Runs one audit pass now and returns the report (does not abort; tests
  // assert on the result).
  AuditReport RunAudit() { return audit_registry_.RunAll(); }

  // --- telemetry (src/sim/telemetry.h, src/sim/profile.h) ---
  // Components self-register callback gauges here at construction; the
  // network itself exposes the simulator core (scheduler, packet pool).
  // Attach a TimeSeriesRecorder to this registry to record runs.
  MetricRegistry& metrics() { return metrics_; }
  Profiler& profiler() { return profiler_; }

 private:
  void AuditTick();
  // Member order is destruction order in reverse: the audit and metric
  // registries are declared first so they are destroyed last — components
  // hold ScopedAudit/ScopedMetrics registrations that unregister in their
  // destructors. The packet pool precedes the scheduler and nodes because
  // pending events and port queues hold PacketPtrs whose deleters release
  // into the pool.
  AuditRegistry audit_registry_;
  MetricRegistry metrics_;
  Profiler profiler_;
  // Declared before the scheduler and nodes so the ring (and its post-
  // mortem registration) outlives the final audit pass in ~Network.
  FlightRecorder flight_;
  PacketPool packet_pool_;
  Scheduler scheduler_;
  Rng rng_;
  EndpointTable endpoints_;
  std::vector<std::unique_ptr<Node>> nodes_;
  int next_flow_id_ = 1;
  bool audit_enabled_ = false;
  TimeNs audit_period_ = 0;
  uint64_t audit_passes_ = 0;
};

}  // namespace tfc

#endif  // SRC_NET_NETWORK_H_
