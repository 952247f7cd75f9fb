#include "src/sim/flight.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/telemetry.h"
#include "src/sim/thread_annotations.h"

namespace tfc {
namespace {

// ---------------------------------------------------------------------------
// flight.tfct wire format (little-endian, validated by telemetry_schema.py):
//
//   header   TfctHeader: "TFCT" magic, u32 version (=1), u32 record_size
//            (=40), u32 node_count, u64 recorded_total, u64 event_count
//   names    node_count × { u32 len, len bytes }   (node id = table index)
//   records  event_count × 40-byte FlightEvent, oldest first:
//            i64 time, u64 seq, i32 a, i32 b, i32 c, i32 flow,
//            i16 node, i16 port, u8 type, u8 ptype, u8 flags, u8 weight
//
// The header and the records are written from memory as they lie, through
// the spill writer metrics.tfcb uses (src/sim/telemetry.h); the asserts
// below pin both layouts to the format. Everything in it derives from sim
// time and interned ids: a deterministic run dumps deterministic bytes.
// ---------------------------------------------------------------------------

struct TfctHeader {
  char magic[4] = {'T', 'F', 'C', 'T'};
  uint32_t version = 1;
  uint32_t record_size = sizeof(FlightEvent);
  uint32_t node_count = 0;
  uint64_t recorded_total = 0;
  uint64_t event_count = 0;
};
static_assert(sizeof(TfctHeader) == 32 && offsetof(TfctHeader, node_count) == 12 &&
              offsetof(TfctHeader, recorded_total) == 16 &&
              offsetof(TfctHeader, event_count) == 24);
static_assert(std::is_trivially_copyable_v<FlightEvent> && sizeof(TimeNs) == 8 &&
              offsetof(FlightEvent, seq) == 8 && offsetof(FlightEvent, a) == 16 &&
              offsetof(FlightEvent, b) == 20 && offsetof(FlightEvent, c) == 24 &&
              offsetof(FlightEvent, flow) == 28 && offsetof(FlightEvent, node) == 32 &&
              offsetof(FlightEvent, port) == 34 && offsetof(FlightEvent, type) == 36 &&
              offsetof(FlightEvent, ptype) == 37 && offsetof(FlightEvent, flags) == 38 &&
              offsetof(FlightEvent, weight) == 39);

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

// Process-wide post-mortem registry. CheckFailed (any thread, any Network)
// funnels through DumpArmedFlightRecorders, so registration is the one
// place flight recorders from different confined Networks meet.
Mutex g_flight_mu;
std::vector<FlightRecorder*>* g_armed_recorders TFC_GUARDED_BY(g_flight_mu) = nullptr;
// A dump can itself trip a check (e.g. fopen-failure paths calling code
// with checks); don't recurse.
bool g_dump_in_progress TFC_GUARDED_BY(g_flight_mu) = false;

}  // namespace

const char* FlightEventName(FlightEventType t) {
  switch (t) {
    case FlightEventType::kEnqueue: return "enqueue";
    case FlightEventType::kTransmit: return "transmit";
    case FlightEventType::kDrop: return "drop";
    case FlightEventType::kDeliver: return "deliver";
    case FlightEventType::kFaultDrop: return "fault_drop";
    case FlightEventType::kSlotBegin: return "slot_begin";
    case FlightEventType::kSlotEnd: return "slot_end";
    case FlightEventType::kDelimiterAdopt: return "delim_adopt";
    case FlightEventType::kDelimiterFailover: return "delim_failover";
    case FlightEventType::kTokenRefill: return "refill";
    case FlightEventType::kTokenGrant: return "grant";
    case FlightEventType::kArbiterPark: return "park";
    case FlightEventType::kArbiterRelease: return "release";
    case FlightEventType::kArbiterExpire: return "expire";
    case FlightEventType::kProbeSend: return "probe";
    case FlightEventType::kProbeRetry: return "probe_retry";
    case FlightEventType::kRmaReceive: return "rma";
    case FlightEventType::kAgentWipe: return "wipe";
    case FlightEventType::kAgentConverge: return "converge";
    case FlightEventType::kLinkDown: return "link_down";
    case FlightEventType::kLinkUp: return "link_up";
    case FlightEventType::kHostDown: return "host_down";
    case FlightEventType::kHostUp: return "host_up";
  }
  return "unknown";
}

FlightRecorder::~FlightRecorder() { DisarmPostMortem(); }

void FlightRecorder::Arm(size_t capacity) {
  TFC_CHECK_LE(capacity, kMaxCapacity);
  size_t rounded = kMinCapacity;
  while (rounded < capacity) {
    rounded <<= 1;
  }
  ring_.assign(rounded, FlightEvent{});
  mask_ = rounded - 1;
  recorded_ = 0;
  armed_ = true;
}

void FlightRecorder::Disarm() {
  armed_ = false;
  DisarmPostMortem();
}

bool FlightRecorder::Dump(const std::string& path,
                          const std::vector<std::string>& node_names,
                          std::string* error) const {
  SpillWriter out(path);
  if (!out.opened()) {
    return Fail(error, "flight: cannot open '" + path + "' for writing");
  }
  const size_t n = size();
  TfctHeader header;
  header.node_count = static_cast<uint32_t>(node_names.size());
  header.recorded_total = recorded_;
  header.event_count = n;
  out.Write(header);
  out.WriteNames(node_names);
  // The live window, oldest first, in at most two pieces: from its start to
  // the ring's end, then from the ring's front when it wrapped.
  const size_t start = static_cast<size_t>(recorded_ - n) & mask_;
  const size_t tail = std::min(n, ring_.size() - start);
  out.Write(ring_.data() + start, tail * sizeof(FlightEvent));
  out.Write(ring_.data(), (n - tail) * sizeof(FlightEvent));
  if (!out.Close()) {
    return Fail(error, "flight: short write to '" + path + "'");
  }
  return true;
}

void FlightRecorder::ArmPostMortem(std::string path,
                                   std::vector<std::string> node_names) {
  post_mortem_path_ = std::move(path);
  post_mortem_names_ = std::move(node_names);
  MutexLock lock(&g_flight_mu);
  if (g_armed_recorders == nullptr) {
    g_armed_recorders = new std::vector<FlightRecorder*>();  // leaked by design
  }
  if (!post_mortem_registered_) {
    g_armed_recorders->push_back(this);
    post_mortem_registered_ = true;
  }
}

void FlightRecorder::DisarmPostMortem() {
  if (!post_mortem_registered_) {
    return;
  }
  MutexLock lock(&g_flight_mu);
  if (g_armed_recorders != nullptr) {
    for (size_t i = 0; i < g_armed_recorders->size(); ++i) {
      if ((*g_armed_recorders)[i] == this) {
        g_armed_recorders->erase(g_armed_recorders->begin() +
                                 static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
  post_mortem_registered_ = false;
}

void DumpArmedFlightRecorders() {
  MutexLock lock(&g_flight_mu);
  if (g_dump_in_progress || g_armed_recorders == nullptr) {
    return;
  }
  g_dump_in_progress = true;
  for (FlightRecorder* rec : *g_armed_recorders) {
    std::string error;
    if (rec->Dump(rec->post_mortem_path_, rec->post_mortem_names_, &error)) {
      std::fprintf(stderr, "flight: dumped %llu event(s) to %s\n",
                   static_cast<unsigned long long>(rec->size()),
                   rec->post_mortem_path_.c_str());
    } else {
      std::fprintf(stderr, "flight: %s\n", error.c_str());
    }
  }
  g_dump_in_progress = false;
}

bool LoadFlightDump(const std::string& path, FlightDump* out, std::string* error) {
  SpillReader in(path);
  if (!in.opened()) {
    return Fail(error, "flight: cannot open '" + path + "'");
  }
  const TfctHeader want;
  TfctHeader h;
  if (!in.Read(&h)) {
    return Fail(error, "flight: '" + path + "' truncated header");
  }
  if (std::memcmp(h.magic, want.magic, sizeof h.magic) != 0) {
    return Fail(error, "flight: '" + path + "' bad magic (want TFCT)");
  }
  if (h.version != want.version) {
    return Fail(error, "flight: '" + path + "' unsupported version " +
                           std::to_string(h.version));
  }
  if (h.record_size != want.record_size) {
    return Fail(error, "flight: '" + path + "' unexpected record size " +
                           std::to_string(h.record_size));
  }
  out->recorded_total = h.recorded_total;

  // Counts are checked against the bytes left before anything is sized by
  // them: a corrupt count must fail, not allocate.
  out->nodes.clear();
  for (uint32_t i = 0; i < h.node_count; ++i) {
    std::string name;
    if (!in.ReadName(&name)) {
      return Fail(error, "flight: '" + path + "' truncated name table");
    }
    out->nodes.push_back(std::move(name));
  }

  const uint64_t event_count = h.event_count;
  if (event_count > in.left() / sizeof(FlightEvent) ||
      event_count * sizeof(FlightEvent) != in.left()) {
    return Fail(error, "flight: '" + path + "' record section size mismatch");
  }
  // The writer's invariants (tools/telemetry_schema.py checks the same): the
  // ring never holds more than was recorded, times start at zero and never
  // go back, and every id is -1 (none) or a real index.
  if (event_count > out->recorded_total) {
    return Fail(error, "flight: '" + path + "' holds " + std::to_string(event_count) +
                           " events but only " + std::to_string(out->recorded_total) +
                           " were recorded");
  }
  out->events.resize(static_cast<size_t>(event_count));
  if (!in.Read(out->events.data(), out->events.size() * sizeof(FlightEvent))) {
    return Fail(error, "flight: '" + path + "' read failed");
  }
  int64_t prev_time = 0;  // lint:allow units (FlightEvent time counts)
  for (size_t i = 0; i < out->events.size(); ++i) {
    const FlightEvent& e = out->events[i];
    const auto reject = [&](const std::string& why) {
      return Fail(error, "flight: '" + path + "' event " + std::to_string(i) + ' ' + why);
    };
    if (static_cast<int>(e.type) >= kFlightEventTypeCount) {
      return reject("has unknown type " + std::to_string(static_cast<int>(e.type)));
    }
    if (e.time.count() < prev_time) {
      return reject("has time " + std::to_string(e.time.count()) + " ns, earlier than " +
                    std::to_string(prev_time) + " ns");
    }
    if (e.flow < -1 || e.node < -1 || e.port < -1) {
      return reject("has an id below -1: flow " + std::to_string(e.flow) + ", node " +
                    std::to_string(e.node) + ", port " + std::to_string(e.port));
    }
    prev_time = e.time.count();
  }
  return true;
}

}  // namespace tfc
