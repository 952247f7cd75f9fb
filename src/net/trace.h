// Event tracing: text rendering and offline exporters over flight events.
//
// The trace layer is a set of *readers* of the flight recorder's fixed-width
// FlightEvent struct (src/sim/flight.h). The Network builds one FlightEvent
// per packet or control-plane event straight into the armed ring; the hot
// path costs one branch when the ring is disarmed. WriteFlightEventLine
// renders one line per event:
//
//   3.021840 + s[NF2]:p2 DATA f=7 seq=14600 len=1460 rm q=3036
//   ^time(s)  ^event     ^packet                        ^queue after
//
// Packet events: '+' enqueue, '-' transmit (left the queue and started
// serializing, as ns-2's dequeue), 'd' drop, 'r' deliver-to-host, 'x'
// fault-drop. TFC control-plane events render with a '*' marker and the
// event mnemonic:
//
//   0.000103 * S:p0 slot_end E=1 token=27500 w=27500 rtt_m=82688 f=1
//   0.000145 * S:p0 grant w=1518 ctr=1518 f=1
//
// ExportFlightTrace() turns a dumped flight.tfct into that text, Chrome/
// Perfetto trace-event JSON (one track per port, one async span per flow)
// and a per-flow text timeline; load the JSON at https://ui.perfetto.dev.

#ifndef SRC_NET_TRACE_H_
#define SRC_NET_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/sim/flight.h"
#include "src/sim/time.h"

namespace tfc {

// Packs a live packet event into the fixed-width record: a=payload length,
// b=advertised window (saturated), c=`queue`, the port's queue bytes after
// the event as the caller holds them (0 when portless; for a transmit, the
// bytes still waiting behind the frame), flags=rm/rma/ce bits,
// ptype=PacketType. Inline: an armed ring pays this per packet event, so
// the fill must compile down to direct stores (the run_bench.sh armed-ring
// gate holds the all-in cost to 1.15x).
inline FlightEvent MakePacketEvent(TimeNs time, FlightEventType type,
                                   const Packet& pkt, const Node* node,
                                   const Port* port, Bytes queue) {
  FlightEvent e;
  e.time = time;
  e.type = type;
  e.seq = pkt.seq;
  e.a = FlightI32(pkt.payload);
  e.b = FlightI32(pkt.window);
  e.c = FlightI32(queue.count());
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

// Writes one event as one text line. `node_name` is the event's node as
// Network::NodeName or FlightDump::NodeName resolves it; an empty name
// renders as "n<id>".
void WriteFlightEventLine(std::ostream& out, const FlightEvent& event,
                          std::string_view node_name);

// Offline exporter for `tfcsim --export-trace=DIR`: reads DIR/flight.tfct
// and writes
//   DIR/trace.txt            every dumped event in ring order, one
//                            WriteFlightEventLine line each
//   DIR/trace.perfetto.json  Chrome trace-event JSON — metadata names every
//                            node (process) and port (thread), each TFC
//                            slot is a complete ("X") event on its port
//                            track, each flow is an async ("b"/"e") span,
//                            everything else an instant event; timestamps
//                            are microseconds, written in ring order (an X
//                            at its slot_begin, a flow's b and e beside its
//                            first and last events), so they never go back
//   DIR/flows.txt            per-flow text timeline: one section per flow
//                            id, listing the lines of that flow's events
// Returns false and fills *error if the dump is missing or malformed.
bool ExportFlightTrace(const std::string& dir, std::string* error);

}  // namespace tfc

#endif  // SRC_NET_TRACE_H_
