#include "src/net/trace.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/node.h"
#include "src/net/port.h"
#include "src/sim/telemetry.h"

namespace tfc {

namespace {

char EventChar(FlightEventType t) {
  switch (t) {
    case FlightEventType::kEnqueue:
      return '+';
    case FlightEventType::kTransmit:
      return '-';
    case FlightEventType::kDrop:
      return 'd';
    case FlightEventType::kDeliver:
      return 'r';
    case FlightEventType::kFaultDrop:
      return 'x';
    default:
      return '*';
  }
}

void WriteNodeRef(std::ostream& out, std::string_view name, const FlightEvent& e) {
  if (name.empty()) {
    out << 'n' << e.node;
  } else {
    out << name;
  }
  if (e.port >= 0) {
    out << ":p" << e.port;
  }
}

// Calls fn(key, value) for each per-type payload field, rendered the same
// in the text timeline ("key=value") and the Perfetto args (JSON). Packet
// events carry their own rendering below.
template <typename Fn>
void ForEachControlField(const FlightEvent& e, Fn&& fn) {
  switch (e.type) {
    case FlightEventType::kSlotBegin:
      fn("E", static_cast<int64_t>(e.seq));
      break;
    case FlightEventType::kSlotEnd:
      fn("E", static_cast<int64_t>(e.seq));
      fn("token", e.a);
      fn("w", e.b);
      fn("rtt_m", e.c);
      break;
    case FlightEventType::kDelimiterFailover:
      fn("miss", e.a);
      break;
    case FlightEventType::kTokenRefill:
      fn("add", e.a);
      fn("ctr", e.b);
      break;
    case FlightEventType::kTokenGrant:
      fn("w", e.a);
      fn("ctr", e.b);
      break;
    case FlightEventType::kArbiterPark:
      fn("w", e.a);
      fn("parked", e.c);
      break;
    case FlightEventType::kArbiterRelease:
      fn("w", e.a);
      fn("ctr", e.b);
      break;
    case FlightEventType::kArbiterExpire:
      fn("parked", e.c);
      break;
    case FlightEventType::kProbeSend:
      fn("seq", static_cast<int64_t>(e.seq));
      fn("attempt", e.a);
      break;
    case FlightEventType::kProbeRetry:
      fn("attempt", e.a);
      break;
    case FlightEventType::kRmaReceive:
      fn("w", e.a);
      fn("cwnd", e.b);
      break;
    case FlightEventType::kAgentWipe:
      fn("n", e.a);
      break;
    case FlightEventType::kAgentConverge:
      fn("slots", e.a);
      break;
    default:
      break;  // adopt + link/host transitions carry no payload
  }
}

}  // namespace

void WriteFlightEventLine(std::ostream& out, const FlightEvent& event,
                          std::string_view node_name) {
  out << std::fixed << std::setprecision(6) << ToSeconds(event.time) << ' '
      << EventChar(event.type) << ' ';
  WriteNodeRef(out, node_name, event);
  if (IsPacketFlightEvent(event.type)) {
    out << ' ' << PacketTypeName(static_cast<PacketType>(event.ptype))
        << " f=" << event.flow << " seq=" << event.seq << " len=" << event.a;
    if ((event.flags & kFlightRm) != 0) {
      out << " rm";
    }
    if ((event.flags & kFlightRma) != 0) {
      out << " rma w=" << event.b;
    }
    if ((event.flags & kFlightCe) != 0) {
      out << " ce";
    }
    if (event.port >= 0) {
      out << " q=" << event.c;
    }
  } else {
    out << ' ' << FlightEventName(event.type);
    ForEachControlField(event, [&out](const char* key, int64_t value) {
      out << ' ' << key << '=' << value;
    });
    if (event.flow >= 0) {
      out << " f=" << event.flow;
    }
  }
  out << '\n';
}

namespace {

int Tid(const FlightEvent& e) { return e.port >= 0 ? e.port + 1 : 0; }

// Writes `t` in microseconds, the unit of Perfetto's `ts` and `dur`, as
// JsonNumber(ns / 1000.0) renders it: whole numbers plainly, others with
// the at most three decimals a whole number of nanoseconds needs.
void WriteMicros(std::ostream& out, TimeNs t) {
  out << t.count() / 1000;
  if (int64_t frac = t.count() % 1000; frac != 0) {
    out << '.';
    for (int64_t unit = 100; frac != 0; frac %= unit, unit /= 10) {
      out << frac / unit;
    }
  }
}

// Streams the members of an `args` object as "key":value pairs.
struct JsonArgs {
  std::ostream& out;
  const char* comma = "";
  void operator()(const char* key, int64_t value) {
    out << comma << '"' << key << "\":" << value;
    comma = ",";
  }
};

// A TFC slot as a complete ("X") event on its port track: it starts at
// `begin` and carries the closing `end`'s fields.
void WriteSlot(std::ostream& out, const FlightEvent& begin, const FlightEvent& end) {
  out << "{\"ph\":\"X\",\"name\":\"slot\",\"cat\":\"tfc\",\"pid\":" << begin.node
      << ",\"tid\":" << Tid(begin) << ",\"ts\":";
  WriteMicros(out, begin.time);
  out << ",\"dur\":";
  WriteMicros(out, end.time - begin.time);
  out << ",\"args\":{";
  ForEachControlField(end, JsonArgs{out});
  out << "}}";
}

// Any other event as an instant ("i") on its track.
void WriteInstant(std::ostream& out, const FlightEvent& e) {
  const bool packet = IsPacketFlightEvent(e.type);
  out << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"" << FlightEventName(e.type);
  if (packet) {
    out << ' ' << PacketTypeName(static_cast<PacketType>(e.ptype));
  }
  out << "\",\"cat\":\"" << (packet ? "packet" : "tfc") << "\",\"pid\":" << e.node
      << ",\"tid\":" << Tid(e) << ",\"ts\":";
  WriteMicros(out, e.time);
  out << ",\"args\":{";
  JsonArgs arg{out};
  if (packet) {
    arg("flow", e.flow);
    arg("seq", static_cast<int64_t>(e.seq));
    arg("len", e.a);
    if ((e.flags & kFlightRma) != 0) {
      arg("w", e.b);
    }
    if (e.port >= 0) {
      arg("q", e.c);
    }
  } else {
    ForEachControlField(e, arg);
    if (e.flow >= 0) {
      arg("flow", e.flow);
    }
  }
  out << "}}";
}

// One end ('b' or 'e') of a flow's async span.
void WriteFlowMark(std::ostream& out, char ph, int flow, int node, TimeNs t) {
  out << "{\"ph\":\"" << ph << "\",\"cat\":\"flow\",\"id\":" << flow << ",\"name\":\"flow "
      << flow << "\",\"pid\":" << node << ",\"tid\":0,\"ts\":";
  WriteMicros(out, t);
  out << ",\"args\":{}}";
}

// Writes `path` through `fill`; false with *error when the file cannot be
// opened or the write comes up short.
template <typename Fill>
bool WriteExportFile(const std::string& path, const Fill& fill, std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) {
      *error = "flight: cannot open '" + path + "' for writing";
    }
    return false;
  }
  fill(out);
  out.close();
  if (!out) {
    if (error != nullptr) {
      *error = "flight: short write to '" + path + "'";
    }
    return false;
  }
  return true;
}

std::string DisplayName(const FlightDump& dump, int node) {
  const std::string_view name = dump.NodeName(node);
  return name.empty() ? "n" + std::to_string(node) : std::string(name);
}

}  // namespace

bool ExportFlightTrace(const std::string& dir, std::string* error) {
  FlightDump dump;
  if (!LoadFlightDump(dir + "/flight.tfct", &dump, error)) {
    return false;
  }
  const std::vector<FlightEvent>& events = dump.events;

  // Index pass. Every node is a Perfetto process and every (node, port) a
  // thread (tid = port + 1; tid 0 is the node-level track). A slot_begin
  // pairs with the next slot_end on its (node, port); a second begin before
  // that end replaces the first, and a begin never closed is dropped rather
  // than emitted unbalanced. A flow spans its first to its last event.
  std::map<int, std::set<int>> tracks;               // node -> tids
  std::map<std::pair<int, int>, size_t> open_slots;  // (node, port) -> begin
  std::unordered_map<size_t, size_t> slot_pair;      // begin <-> end index
  std::unordered_map<int, std::pair<size_t, size_t>> flows;  // first, last index
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    tracks[e.node].insert(Tid(e));
    if (e.flow >= 0) {
      flows.try_emplace(e.flow, i, i).first->second.second = i;
    }
    if (e.type == FlightEventType::kSlotBegin) {
      open_slots[{e.node, e.port}] = i;
    } else if (e.type == FlightEventType::kSlotEnd) {
      const auto open = open_slots.find({e.node, e.port});
      if (open != open_slots.end()) {
        slot_pair[open->second] = i;
        slot_pair[i] = open->second;
        open_slots.erase(open);
      }
    }
  }

  // Write pass: metadata, then every object in ring order, so `ts` never
  // goes back. A slot's X sits at its begin, a flow's b just before its
  // first event and its e just after its last. A slot_end with no begin
  // (the ring wrapped past it) stays an instant.
  const auto write_json = [&](std::ostream& out) {
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    const char* sep = "";
    const auto next = [&]() -> std::ostream& { return out << std::exchange(sep, ",\n"); };
    for (const auto& [node, tids] : tracks) {
      next() << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << node
             << ",\"args\":{\"name\":\"" << JsonEscape(DisplayName(dump, node)) << "\"}}";
      for (const int tid : tids) {
        next() << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << node << ",\"tid\":" << tid
               << ",\"args\":{\"name\":\""
               << (tid == 0 ? std::string("node") : "p" + std::to_string(tid - 1)) << "\"}}";
      }
    }
    for (size_t i = 0; i < events.size(); ++i) {
      const FlightEvent& e = events[i];
      const auto* span = e.flow >= 0 ? &flows.at(e.flow) : nullptr;
      if (span != nullptr && span->first == i) {
        WriteFlowMark(next(), 'b', e.flow, e.node, e.time);
      }
      if (e.type == FlightEventType::kSlotBegin) {
        if (const auto end = slot_pair.find(i); end != slot_pair.end()) {
          WriteSlot(next(), e, events[end->second]);
        }
      } else if (e.type != FlightEventType::kSlotEnd || slot_pair.count(i) == 0) {
        WriteInstant(next(), e);
      }
      if (span != nullptr && span->second == i) {
        WriteFlowMark(next(), 'e', e.flow, events[span->first].node, e.time);
      }
    }
    out << "\n]}\n";
  };
  // Per-flow text timeline: one section per flow id, ascending, each
  // listing that flow's events in ring order (hence the stable sort).
  const auto write_flows = [&](std::ostream& out) {
    std::vector<size_t> order;
    order.reserve(dump.events.size());
    for (size_t i = 0; i < dump.events.size(); ++i) {
      if (dump.events[i].flow >= 0) {
        order.push_back(i);
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return dump.events[a].flow < dump.events[b].flow;
    });
    int section = -1;
    for (const size_t i : order) {
      const FlightEvent& e = dump.events[i];
      if (e.flow != section) {
        section = e.flow;
        out << "=== flow " << section << " ===\n";
      }
      WriteFlightEventLine(out, e, dump.NodeName(e.node));
    }
  };
  const auto write_trace = [&](std::ostream& out) {
    for (const FlightEvent& e : dump.events) {
      WriteFlightEventLine(out, e, dump.NodeName(e.node));
    }
  };
  return WriteExportFile(dir + "/trace.perfetto.json", write_json, error) &&
         WriteExportFile(dir + "/flows.txt", write_flows, error) &&
         WriteExportFile(dir + "/trace.txt", write_trace, error);
}

}  // namespace tfc
