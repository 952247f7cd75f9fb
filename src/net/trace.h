// Event tracing: live renderers and offline exporters over flight events.
//
// Since PR 8 the trace layer is a set of *readers* of the flight recorder's
// fixed-width FlightEvent struct (src/sim/flight.h). The Network builds one
// FlightEvent per packet or control-plane event and hands it to the armed
// ring buffer and/or the installed Tracer; the hot path costs one pointer
// test when neither is active. TextTracer renders one line per event:
//
//   3.021840 + s[NF2]:p2 DATA f=7 seq=14600 len=1460 rm q=3036
//   ^time(s)  ^event     ^packet                        ^queue after
//
// Packet events: '+' enqueue, '-' transmit, 'd' drop, 'r' deliver-to-host,
// 'x' fault-drop. TFC control-plane events render with a '*' marker and the
// event mnemonic:
//
//   0.000213 * s[NF2]:p2 slot_end E=11680 token=2920 w=1460 rtt_m=52000
//   0.000201 * a grant w=2920 ctr=11680 f=3
//
// ExportFlightTrace() turns a dumped flight.tfct into Chrome/Perfetto
// trace-event JSON (one track per port, one async span per flow) plus a
// per-flow text timeline; load the JSON at https://ui.perfetto.dev.

#ifndef SRC_NET_TRACE_H_
#define SRC_NET_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/sim/flight.h"
#include "src/sim/time.h"

namespace tfc {

class Tracer {
 public:
  virtual ~Tracer() = default;
  // `names` resolves event.node back to a display name; it is the live
  // Network during simulation and a loaded FlightDump offline.
  virtual void OnEvent(const FlightEvent& event, const FlightNames& names) = 0;
};

// Packs a live packet event into the fixed-width record: a=payload length,
// b=advertised window (saturated), c=queue bytes after the event (0 when
// portless), flags=rm/rma/ce bits, ptype=PacketType. Inline: an armed ring
// pays this per packet event, so the fill must compile down to direct
// stores (the run_bench.sh armed-ring gate holds the all-in cost to 1.15x).
inline FlightEvent MakePacketEvent(TimeNs time, FlightEventType type,
                                   const Packet& pkt, const Node* node,
                                   const Port* port) {
  FlightEvent e;
  e.time = time;
  e.type = type;
  e.seq = pkt.seq;
  e.a = FlightI32(pkt.payload);
  e.b = FlightI32(pkt.window);
  e.c = port != nullptr ? FlightI32(port->queue_bytes().count()) : 0;
  e.flow = pkt.flow_id;
  e.node = static_cast<int16_t>(node->id());
  e.port = port != nullptr ? static_cast<int16_t>(port->index())
                           : static_cast<int16_t>(-1);
  e.ptype = static_cast<uint8_t>(pkt.type);
  e.flags = static_cast<uint8_t>((pkt.rm ? kFlightRm : 0) |
                                 (pkt.rma ? kFlightRma : 0) |
                                 (pkt.ecn_ce ? kFlightCe : 0));
  e.weight = pkt.weight;
  return e;
}

// Renders events as text. Optionally restricted to one flow id (-1 = all),
// one node, and/or one port index; filters compose (AND).
class TextTracer : public Tracer {
 public:
  explicit TextTracer(std::ostream* out, int flow_filter = -1)
      : out_(out), flow_filter_(flow_filter) {}

  // Only events at the node with this name (empty = all nodes, the default).
  void set_node_filter(std::string node_name) { node_filter_ = std::move(node_name); }
  // Only events at ports with this index (-1 = all, the default). A port
  // filter excludes portless events: deliveries and host-side control
  // events (probe/rma) carry no port.
  void set_port_filter(int index) { port_filter_ = index; }

  void OnEvent(const FlightEvent& event, const FlightNames& names) override;

  uint64_t events_written() const { return events_written_; }

 private:
  std::ostream* out_;
  int flow_filter_;
  std::string node_filter_;
  int port_filter_ = -1;
  uint64_t events_written_ = 0;
};

// Counts events per type without formatting (cheap assertions in tests).
class CountingTracer : public Tracer {
 public:
  void OnEvent(const FlightEvent& event, const FlightNames& names) override;

  uint64_t enqueues = 0;
  uint64_t transmits = 0;
  uint64_t drops = 0;
  uint64_t delivers = 0;
  uint64_t fault_drops = 0;
  // TFC control-plane + fault-transition events, total and per type.
  uint64_t control = 0;
  uint64_t by_type[kFlightEventTypeCount] = {};
};

// Offline exporter for `tfcsim --export-trace=DIR`: reads DIR/flight.tfct
// and writes
//   DIR/trace.perfetto.json  Chrome trace-event JSON — metadata names every
//                            node (process) and port (thread), each TFC
//                            slot is a complete ("X") event on its port
//                            track, each flow is an async ("b"/"e") span,
//                            everything else an instant event; timestamps
//                            are microseconds, emitted in monotone order
//   DIR/flows.txt            per-flow text timeline (TextTracer rendering
//                            grouped by flow id)
// Returns false and fills *error if the dump is missing or malformed.
bool ExportFlightTrace(const std::string& dir, std::string* error);

}  // namespace tfc

#endif  // SRC_NET_TRACE_H_
