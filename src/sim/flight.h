// Flight recorder: an always-armable binary ring buffer of fixed-width
// simulation events (docs/observability.md "Flight recorder").
//
// The metric registry answers "how much of everything happened"; the flight
// recorder answers "what led up to it". Every packet event (enqueue /
// transmit / drop / deliver / fault-drop) and every TFC control-plane
// transition (token grant/refill, slot begin/end, delimiter adoption and
// failover, acquisition probes and retries, arbiter park/release/expiry,
// agent wipes and re-convergence, link and host faults) can be recorded as
// one 40-byte FlightEvent stamped with sim time, pre-interned node/port
// ids, and a flow id — enough to reconstruct a packet's life or a flow's
// token history as causal spans, offline.
//
// Append follows the telemetry hot-path rules (docs/perf.md, lint.py
// recorder-hot): no allocation, no map/string lookups, no I/O — one armed
// branch, one masked store, one increment. Wraparound is by index mask
// (capacity is rounded up to a power of two), so a long run keeps the most
// recent `capacity` events.
//
// Each record is made by the event it describes, so the ring holds records
// in simulator event order. A ring armed mid-run records exactly what a
// ring armed from the start records after that instant.
//
// The ring is the only sink; its readers share the event struct:
//   - ForEach() visits the live window in place;
//   - Dump() drains the ring to a `flight.tfct` binary spill, and
//     ArmPostMortem() registers the ring with a process-wide hook so any
//     TFC_CHECK failure (audit violation, watchdog trip) drains it before
//     aborting;
//   - LoadFlightDump() + the text and Perfetto exporters (src/net/trace.h)
//     read the spill back for offline analysis.

#ifndef SRC_SIM_FLIGHT_H_
#define SRC_SIM_FLIGHT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace tfc {

enum class FlightEventType : uint8_t {
  // Packet data-path events (ns-2 style; rendered as + - d r x).
  kEnqueue = 0,    // packet entered a port's transmit queue
  kTransmit = 1,   // packet left the queue and started serializing
  kDrop = 2,       // packet tail-dropped at a full buffer
  kDeliver = 3,    // packet handed to a host endpoint
  kFaultDrop = 4,  // packet destroyed by an injected fault

  // TFC control plane (src/tfc): the token machinery behind the packets.
  kSlotBegin = 5,          // a delimiter RM opened a time slot   seq=E
  kSlotEnd = 6,            // slot closed: a=token b=window c=rtt_m(ns) seq=E
  kDelimiterAdopt = 7,     // this flow was elected delimiter
  kDelimiterFailover = 8,  // delimiter went silent: a=miss exponent
  kTokenRefill = 9,        // arbiter counter refill: a=added b=counter
  kTokenGrant = 10,        // window debited from counter: a=grant b=counter
  kArbiterPark = 11,       // sub-MSS RMA parked: a=window c=parked depth
  kArbiterRelease = 12,    // parked RMA released: a=grant b=counter
  kArbiterExpire = 13,     // parked RMA aged out / purged: c=parked depth
  kProbeSend = 14,         // window-acquisition probe sent: a=attempt
  kProbeRetry = 15,        // probe retry timer fired: a=attempt
  kRmaReceive = 16,        // sender got its allocation: a=window b=cwnd
  kAgentWipe = 17,         // switch agent state wiped: a=lifetime wipes
  kAgentConverge = 18,     // first slot completed from cold state: a=slots

  // Fault-injection transitions (src/net/fault.h).
  kLinkDown = 19,
  kLinkUp = 20,
  kHostDown = 21,
  kHostUp = 22,
};

inline constexpr int kFlightEventTypeCount = 23;

// Packet events carry a live Packet at emission time; control events do not.
constexpr bool IsPacketFlightEvent(FlightEventType t) {
  return static_cast<uint8_t>(t) <= static_cast<uint8_t>(FlightEventType::kFaultDrop);
}

// Short stable mnemonic ("slot_end", "grant", ...) used by the text
// renderer, the Perfetto exporter, and the docs event table.
const char* FlightEventName(FlightEventType t);

// FlightEvent.flags bits (packet events only).
inline constexpr uint8_t kFlightRm = 1;   // round-mark bit
inline constexpr uint8_t kFlightRma = 2;  // RM-ack bit (window valid in b)
inline constexpr uint8_t kFlightCe = 4;   // ECN congestion-experienced

// One fixed-width record. All ids are pre-interned integers: Node::id()
// (dense index into Network::nodes()), Port::index(), flow id. The a/b/c
// payload fields are event-specific (see the enum); for packet events
// a=payload length, b=advertised window, c=queue bytes after the event
// (for a transmit: the bytes still waiting behind the frame).
struct FlightEvent {
  TimeNs time = 0;    // sim time stamp
  uint64_t seq = 0;   // packet sequence number / event-specific count
  int32_t a = 0;
  int32_t b = 0;
  int32_t c = 0;
  int32_t flow = -1;  // flow/span id (-1 = none)
  int16_t node = -1;  // Node::id()
  int16_t port = -1;  // Port::index() (-1 = node-level event)
  FlightEventType type = FlightEventType::kEnqueue;
  uint8_t ptype = 0;  // PacketType for packet events
  uint8_t flags = 0;  // kFlightRm | kFlightRma | kFlightCe
  uint8_t weight = 0; // packet weight
};
static_assert(sizeof(FlightEvent) == 40, "flight.tfct records are 40 bytes");

// Saturating conversions into the event payload fields: recorder inputs
// arrive as doubles (token values), int64 byte counts, and u32 windows.
constexpr int32_t FlightI32(double v) {
  if (!(v >= static_cast<double>(std::numeric_limits<int32_t>::min()))) {
    return std::numeric_limits<int32_t>::min();  // also catches NaN
  }
  if (v >= static_cast<double>(std::numeric_limits<int32_t>::max())) {
    return std::numeric_limits<int32_t>::max();
  }
  return static_cast<int32_t>(v);
}
constexpr int32_t FlightI32(int64_t v) {
  if (v < std::numeric_limits<int32_t>::min()) {
    return std::numeric_limits<int32_t>::min();
  }
  if (v > std::numeric_limits<int32_t>::max()) {
    return std::numeric_limits<int32_t>::max();
  }
  return static_cast<int32_t>(v);
}
constexpr int32_t FlightI32(uint64_t v) {
  return v > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())
             ? std::numeric_limits<int32_t>::max()
             : static_cast<int32_t>(v);
}
constexpr int32_t FlightI32(uint32_t v) { return FlightI32(static_cast<uint64_t>(v)); }

// Builds a control-plane event skeleton; the call site fills seq/a/b/c.
constexpr FlightEvent ControlFlightEvent(FlightEventType type, int node, int port,
                                         int flow) {
  FlightEvent e;
  e.type = type;
  e.node = static_cast<int16_t>(node);
  e.port = static_cast<int16_t>(port);
  e.flow = flow;
  return e;
}

// The ring. Confined like everything a Network owns: one thread appends.
// Dump() and ForEach() are cold read paths.
class FlightRecorder {
 public:
  static constexpr size_t kMinCapacity = 64;
  // 2^30 events (40 GiB): rounding up to a power of two cannot overflow.
  static constexpr size_t kMaxCapacity = size_t{1} << 30;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();  // unregisters any post-mortem hook

  // Preallocates the ring (capacity rounded up to a power of two, minimum
  // kMinCapacity; more than kMaxCapacity aborts) and starts recording.
  // Re-arming resets the ring.
  void Arm(size_t capacity);
  void Disarm();
  bool armed() const { return armed_; }

  size_t capacity() const { return ring_.size(); }
  // Total appends over the recorder's lifetime (monotone across wraps).
  uint64_t recorded() const { return recorded_; }
  // Events currently live in the ring.
  size_t size() const {
    return recorded_ < static_cast<uint64_t>(ring_.size())
               ? static_cast<size_t>(recorded_)
               : ring_.size();
  }

  // Hot path: one predictable branch when disarmed; when armed, one masked
  // store and one increment. No allocation, no lookups, no I/O.
  void Record(const FlightEvent& e) {
    if (!armed_) {
      return;
    }
    *Append() = e;
  }

  // Armed-only variant for the per-packet fast path: claims the next slot
  // so the caller fills the record in place instead of copying 40 bytes
  // through a local. Callers must check armed() first.
  FlightEvent* Append() {
    FlightEvent* slot = &ring_[static_cast<size_t>(recorded_) & mask_];
    ++recorded_;
    return slot;
  }

  // Visits the live window oldest-first (time order: appends are stamped
  // with the monotone scheduler clock).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const uint64_t n = static_cast<uint64_t>(size());
    for (uint64_t i = recorded_ - n; i < recorded_; ++i) {
      fn(ring_[static_cast<size_t>(i) & mask_]);
    }
  }

  // Drains the live window to a `flight.tfct` binary spill (header, node
  // name table, oldest-first records — see docs/observability.md), written
  // from the ring as it lies in at most two pieces: no copy, and no
  // allocation of its own. Cold path; deterministic bytes for a
  // deterministic run (sim time only).
  bool Dump(const std::string& path, const std::vector<std::string>& node_names,
            std::string* error) const;

  // Registers this ring with the process-wide post-mortem hook: any
  // TFC_CHECK failure — including audit-report and watchdog-trip aborts —
  // drains it to `path` before the process dies. The name snapshot is taken
  // now (the Network may be mid-destruction when the dump runs). The hook
  // unregisters on Disarm/destruction.
  void ArmPostMortem(std::string path, std::vector<std::string> node_names);
  void DisarmPostMortem();

 private:
  friend void DumpArmedFlightRecorders();

  std::vector<FlightEvent> ring_;
  size_t mask_ = 0;
  uint64_t recorded_ = 0;
  bool armed_ = false;
  std::string post_mortem_path_;
  std::vector<std::string> post_mortem_names_;
  bool post_mortem_registered_ = false;
};

// A loaded flight.tfct spill: events oldest-first plus the node name table.
struct FlightDump {
  std::vector<std::string> nodes;
  std::vector<FlightEvent> events;
  uint64_t recorded_total = 0;  // includes events overwritten by wraparound

  // Returns an empty view for unknown ids; renderers fall back to "n<id>".
  std::string_view NodeName(int id) const {
    return id >= 0 && static_cast<size_t>(id) < nodes.size()
               ? std::string_view(nodes[static_cast<size_t>(id)])
               : std::string_view();
  }
};

// Reads a flight.tfct spill, its records straight into out->events, and
// validates them in place. Returns false and fills *error on a missing
// file, bad magic/version, truncation, or a dump the writer cannot produce:
// more events than recorded_total, a negative or decreasing time, or a
// flow, node or port id below -1.
bool LoadFlightDump(const std::string& path, FlightDump* out, std::string* error);

}  // namespace tfc

#endif  // SRC_SIM_FLIGHT_H_
