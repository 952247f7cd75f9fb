#include "src/sim/flight.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/thread_annotations.h"

namespace tfc {
namespace {

// ---------------------------------------------------------------------------
// flight.tfct wire format (little-endian, validated by telemetry_schema.py):
//
//   header   "TFCT" magic, u32 version (=1), u32 record_bytes (=40),
//            u32 node_count, u64 recorded_total, u64 event_count
//   names    node_count × { u32 len, len bytes }   (node id = table index)
//   records  event_count × 40-byte FlightEvent, oldest first:
//            i64 time, u64 seq, i32 a, i32 b, i32 c, i32 flow,
//            i16 node, i16 port, u8 type, u8 ptype, u8 flags, u8 weight
//
// Fields are packed byte-by-byte so the file is identical regardless of host
// struct layout. Everything in
// it derives from sim time and interned ids: a deterministic run dumps
// deterministic bytes.
// ---------------------------------------------------------------------------

constexpr char kTfctMagic[4] = {'T', 'F', 'C', 'T'};
constexpr uint32_t kTfctVersion = 1;
constexpr uint32_t kTfctRecordBytes = 40;
constexpr size_t kTfctHeaderBytes = 4 + 4 + 4 + 4 + 8 + 8;

void PutU16(std::vector<unsigned char>* out, uint16_t v) {
  out->push_back(static_cast<unsigned char>(v));
  out->push_back(static_cast<unsigned char>(v >> 8));
}

void PutU32(std::vector<unsigned char>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

void PutU64(std::vector<unsigned char>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

void PutEvent(std::vector<unsigned char>* out, const FlightEvent& e) {
  PutU64(out, static_cast<uint64_t>(e.time.count()));
  PutU64(out, e.seq);
  PutU32(out, static_cast<uint32_t>(e.a));
  PutU32(out, static_cast<uint32_t>(e.b));
  PutU32(out, static_cast<uint32_t>(e.c));
  PutU32(out, static_cast<uint32_t>(e.flow));
  PutU16(out, static_cast<uint16_t>(e.node));
  PutU16(out, static_cast<uint16_t>(e.port));
  out->push_back(static_cast<unsigned char>(e.type));
  out->push_back(e.ptype);
  out->push_back(e.flags);
  out->push_back(e.weight);
}

uint16_t GetU16(const unsigned char* p) {
  return static_cast<uint16_t>(static_cast<uint16_t>(p[0]) |
                               static_cast<uint16_t>(p[1]) << 8);
}

uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

FlightEvent GetEvent(const unsigned char* p) {
  FlightEvent e;
  e.time = TimeNs(static_cast<int64_t>(GetU64(p)));
  e.seq = GetU64(p + 8);
  e.a = static_cast<int32_t>(GetU32(p + 16));
  e.b = static_cast<int32_t>(GetU32(p + 20));
  e.c = static_cast<int32_t>(GetU32(p + 24));
  e.flow = static_cast<int32_t>(GetU32(p + 28));
  e.node = static_cast<int16_t>(GetU16(p + 32));
  e.port = static_cast<int16_t>(GetU16(p + 34));
  e.type = static_cast<FlightEventType>(p[36]);
  e.ptype = p[37];
  e.flags = p[38];
  e.weight = p[39];
  return e;
}

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
  std::vector<unsigned char> buf;
  buf.reserve(kTfctHeaderBytes + size() * kTfctRecordBytes);
  for (const char c : kTfctMagic) {
    buf.push_back(static_cast<unsigned char>(c));
  }
  PutU32(&buf, kTfctVersion);
  PutU32(&buf, kTfctRecordBytes);
  PutU32(&buf, static_cast<uint32_t>(node_names.size()));
  PutU64(&buf, recorded_);
  PutU64(&buf, static_cast<uint64_t>(size()));
  for (const std::string& name : node_names) {
    PutU32(&buf, static_cast<uint32_t>(name.size()));
    buf.insert(buf.end(), name.begin(), name.end());
  }
  ForEach([&buf](const FlightEvent& e) { PutEvent(&buf, e); });

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Fail(error, "flight: cannot open '" + path + "' for writing");
  }
  const size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != buf.size() || !closed) {
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
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Fail(error, "flight: cannot open '" + path + "'");
  }
  std::vector<unsigned char> buf;
  unsigned char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf.insert(buf.end(), chunk, chunk + n);
  }
  std::fclose(f);

  if (buf.size() < kTfctHeaderBytes) {
    return Fail(error, "flight: '" + path + "' truncated header");
  }
  if (std::memcmp(buf.data(), kTfctMagic, 4) != 0) {
    return Fail(error, "flight: '" + path + "' bad magic (want TFCT)");
  }
  const uint32_t version = GetU32(buf.data() + 4);
  if (version != kTfctVersion) {
    return Fail(error, "flight: '" + path + "' unsupported version " +
                           std::to_string(version));
  }
  const uint32_t record_size = GetU32(buf.data() + 8);
  if (record_size != kTfctRecordBytes) {
    return Fail(error, "flight: '" + path + "' unexpected record size " +
                           std::to_string(record_size));
  }
  const uint32_t node_count = GetU32(buf.data() + 12);
  out->recorded_total = GetU64(buf.data() + 16);
  const uint64_t event_count = GetU64(buf.data() + 24);

  // Counts are checked against the bytes left before anything is sized by
  // them: a corrupt count must fail, not allocate.
  size_t off = kTfctHeaderBytes;
  out->nodes.clear();
  for (uint32_t i = 0; i < node_count; ++i) {
    if (off + 4 > buf.size()) {
      return Fail(error, "flight: '" + path + "' truncated name table");
    }
    const uint32_t len = GetU32(buf.data() + off);
    off += 4;
    if (off + len > buf.size()) {
      return Fail(error, "flight: '" + path + "' truncated node name");
    }
    out->nodes.emplace_back(reinterpret_cast<const char*>(buf.data() + off), len);
    off += len;
  }

  if (event_count > (buf.size() - off) / kTfctRecordBytes ||
      off + event_count * kTfctRecordBytes != buf.size()) {
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
  out->events.clear();
  out->events.reserve(static_cast<size_t>(event_count));
  int64_t prev_time = 0;  // lint:allow units (FlightEvent time counts)
  for (uint64_t i = 0; i < event_count; ++i) {
    const FlightEvent e = GetEvent(buf.data() + off);
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
    out->events.push_back(e);
    off += kTfctRecordBytes;
  }
  return true;
}

}  // namespace tfc
