#include "src/net/trace.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
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

// The per-type payload fields, rendered identically in the text timeline
// ("key=value") and the Perfetto args (JSON). Packet events carry their own
// dedicated rendering below.
std::vector<std::pair<const char*, int64_t>> ControlFields(const FlightEvent& e) {
  std::vector<std::pair<const char*, int64_t>> kv;
  switch (e.type) {
    case FlightEventType::kSlotBegin:
      kv.emplace_back("E", static_cast<int64_t>(e.seq));
      break;
    case FlightEventType::kSlotEnd:
      kv.emplace_back("E", static_cast<int64_t>(e.seq));
      kv.emplace_back("token", e.a);
      kv.emplace_back("w", e.b);
      kv.emplace_back("rtt_m", e.c);
      break;
    case FlightEventType::kDelimiterFailover:
      kv.emplace_back("miss", e.a);
      break;
    case FlightEventType::kTokenRefill:
      kv.emplace_back("add", e.a);
      kv.emplace_back("ctr", e.b);
      break;
    case FlightEventType::kTokenGrant:
      kv.emplace_back("w", e.a);
      kv.emplace_back("ctr", e.b);
      break;
    case FlightEventType::kArbiterPark:
      kv.emplace_back("w", e.a);
      kv.emplace_back("parked", e.c);
      break;
    case FlightEventType::kArbiterRelease:
      kv.emplace_back("w", e.a);
      kv.emplace_back("ctr", e.b);
      break;
    case FlightEventType::kArbiterExpire:
      kv.emplace_back("parked", e.c);
      break;
    case FlightEventType::kProbeSend:
      kv.emplace_back("seq", static_cast<int64_t>(e.seq));
      kv.emplace_back("attempt", e.a);
      break;
    case FlightEventType::kProbeRetry:
      kv.emplace_back("attempt", e.a);
      break;
    case FlightEventType::kRmaReceive:
      kv.emplace_back("w", e.a);
      kv.emplace_back("cwnd", e.b);
      break;
    case FlightEventType::kAgentWipe:
      kv.emplace_back("n", e.a);
      break;
    case FlightEventType::kAgentConverge:
      kv.emplace_back("slots", e.a);
      break;
    default:
      break;  // adopt + link/host transitions carry no payload
  }
  return kv;
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
    for (const auto& [key, value] : ControlFields(event)) {
      out << ' ' << key << '=' << value;
    }
    if (event.flow >= 0) {
      out << " f=" << event.flow;
    }
  }
  out << '\n';
}

namespace {

// One pending trace-event JSON object, keyed by its nanosecond timestamp so
// the emitted `ts` sequence is monotone (ISSUE 8: Perfetto export must have
// monotone timestamps and paired spans). Equal-time entries keep insertion
// order via stable_sort.
struct JsonEntry {
  int64_t time = 0;  // lint:allow units (sort key over FlightEvent times)
  std::string json;
};

std::string TsField(int64_t time) {
  return "\"ts\":" + JsonNumber(static_cast<double>(time) / 1000.0);
}

std::string ArgsJson(const std::vector<std::pair<const char*, int64_t>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += '"';
    out += kv[i].first;
    out += "\":";
    out += std::to_string(kv[i].second);
  }
  out += '}';
  return out;
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

  std::vector<JsonEntry> entries;
  entries.reserve(dump.events.size() + 16);

  // Track discovery: every (node) becomes a Perfetto process, every
  // (node, port) a thread (tid = port + 1; tid 0 is the node-level track).
  std::map<int, std::map<int, bool>> tracks;  // node -> port -> seen
  // Open slot per (node, port): slot spans pair kSlotBegin with the next
  // kSlotEnd on the same port track. Unpaired begins are dropped rather
  // than emitted unbalanced.
  std::map<std::pair<int, int>, FlightEvent> open_slots;
  // Flow span extent: first/last event time + anchor node per flow id.
  struct FlowSpan {
    int64_t first_time = 0;  // lint:allow units (span extent, FlightEvent times)
    int64_t last_time = 0;   // lint:allow units
    int node = 0;
  };
  std::map<int, FlowSpan> flows;

  for (const FlightEvent& e : dump.events) {
    const int node = e.node;
    const int tid = e.port >= 0 ? e.port + 1 : 0;
    tracks[node][tid] = true;
    if (e.flow >= 0) {
      auto [it, inserted] = flows.try_emplace(e.flow);
      if (inserted) {
        it->second.first_time = e.time.count();
        it->second.node = node;
      }
      it->second.last_time = e.time.count();
    }

    if (e.type == FlightEventType::kSlotBegin) {
      open_slots[{node, e.port}] = e;
      continue;
    }
    if (e.type == FlightEventType::kSlotEnd) {
      auto open = open_slots.find({node, e.port});
      if (open != open_slots.end()) {
        const int64_t begin = open->second.time.count();
        const int64_t duration = e.time.count() - begin;
        std::string json = "{\"ph\":\"X\",\"name\":\"slot\",\"cat\":\"tfc\",";
        json += "\"pid\":" + std::to_string(node) + ",\"tid\":" + std::to_string(tid) +
                ',' + TsField(begin) +
                ",\"dur\":" + JsonNumber(static_cast<double>(duration) / 1000.0) +
                ",\"args\":" + ArgsJson(ControlFields(e)) + '}';
        entries.push_back({begin, std::move(json)});
        open_slots.erase(open);
        continue;
      }
      // A slot end with no recorded begin (ring wrapped past it): fall
      // through and emit it as an instant so the information isn't lost.
    }

    std::vector<std::pair<const char*, int64_t>> args;
    std::string name;
    std::string cat;
    if (IsPacketFlightEvent(e.type)) {
      name = std::string(FlightEventName(e.type)) + ' ' +
             PacketTypeName(static_cast<PacketType>(e.ptype));
      cat = "packet";
      args.emplace_back("flow", e.flow);
      args.emplace_back("seq", static_cast<int64_t>(e.seq));
      args.emplace_back("len", e.a);
      if ((e.flags & kFlightRma) != 0) {
        args.emplace_back("w", e.b);
      }
      if (e.port >= 0) {
        args.emplace_back("q", e.c);
      }
    } else {
      name = FlightEventName(e.type);
      cat = "tfc";
      args = ControlFields(e);
      if (e.flow >= 0) {
        args.emplace_back("flow", e.flow);
      }
    }
    std::string json = "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"" + JsonEscape(name) +
                       "\",\"cat\":\"" + cat + "\",\"pid\":" + std::to_string(node) +
                       ",\"tid\":" + std::to_string(tid) + ',' +
                       TsField(e.time.count()) + ",\"args\":" + ArgsJson(args) + '}';
    entries.push_back({e.time.count(), std::move(json)});
  }

  // Async span per flow: "b"/"e" pairs keyed by (cat="flow", id).
  for (const auto& [flow, span] : flows) {
    const std::string common = "\"cat\":\"flow\",\"id\":" + std::to_string(flow) +
                               ",\"name\":\"flow " + std::to_string(flow) +
                               "\",\"pid\":" + std::to_string(span.node) +
                               ",\"tid\":0,";
    entries.push_back(
        {span.first_time,
         "{\"ph\":\"b\"," + common + TsField(span.first_time) + ",\"args\":{}}"});
    entries.push_back(
        {span.last_time,
         "{\"ph\":\"e\"," + common + TsField(span.last_time) + ",\"args\":{}}"});
  }

  std::stable_sort(entries.begin(), entries.end(),
                   [](const JsonEntry& a, const JsonEntry& b) { return a.time < b.time; });

  const auto write_json = [&](std::ostream& out) {
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;
    // Metadata first: process (node) and thread (port) names.
    for (const auto& [node, tids] : tracks) {
      out << (first ? "" : ",\n")
          << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << node
          << ",\"args\":{\"name\":\"" << JsonEscape(DisplayName(dump, node)) << "\"}}";
      first = false;
      for (const auto& [tid, seen] : tids) {
        (void)seen;
        out << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << node
            << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
            << (tid == 0 ? std::string("node") : "p" + std::to_string(tid - 1))
            << "\"}}";
      }
    }
    for (const JsonEntry& entry : entries) {
      out << (first ? "" : ",\n") << entry.json;
      first = false;
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
