// Flight recorder: ring semantics, TFCT dump/load round-trip, post-mortem
// dumps through the TFC_CHECK abort funnel, passivity (arming never perturbs
// the simulation), and causal ordering of the TFC control-plane events an
// armed run captures.

#include "src/sim/flight.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/trace.h"
#include "src/sim/check.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"

namespace tfc {
namespace {

FlightEvent Ev(int64_t time_ns, FlightEventType type, int node, int32_t a = 0) {
  FlightEvent e = ControlFlightEvent(type, node, /*port=*/0, /*flow=*/-1);
  e.time = time_ns;
  e.a = a;
  return e;
}

std::string TempPath(const std::string& name) {
  const std::string dir = testing::TempDir() + "/tfc_flight_test";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir + "/" + name;
}

TEST(FlightRecorderTest, DisarmedRecordIsANoOp) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.armed());
  rec.Record(Ev(1, FlightEventType::kTokenGrant, 0));
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.size(), 0u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwoWithFloor) {
  FlightRecorder rec;
  rec.Arm(1);
  EXPECT_EQ(rec.capacity(), FlightRecorder::kMinCapacity);
  rec.Arm(100);
  EXPECT_EQ(rec.capacity(), 128u);
  rec.Arm(1 << 12);
  EXPECT_EQ(rec.capacity(), static_cast<size_t>(1) << 12);
}

TEST(FlightRecorderDeathTest, ArmAbortsPastTheCapacityBound) {
  // Unbounded, the power-of-two rounding wraps to 0 for a capacity past
  // 2^63 (the loop never ends) and asks for 2^63 events just below it.
  FlightRecorder rec;
  EXPECT_DEATH(rec.Arm(FlightRecorder::kMaxCapacity + 1), "capacity <= kMaxCapacity");
  EXPECT_DEATH(rec.Arm(~size_t{0}), "capacity <= kMaxCapacity");
  EXPECT_FALSE(rec.armed());
}

TEST(FlightRecorderTest, RingWrapsAndForEachWalksOldestFirst) {
  FlightRecorder rec;
  rec.Arm(64);
  for (int i = 0; i < 200; ++i) {
    rec.Record(Ev(i, FlightEventType::kTokenRefill, 0, i));
  }
  EXPECT_EQ(rec.recorded(), 200u);
  EXPECT_EQ(rec.size(), 64u);
  std::vector<int32_t> seen;
  rec.ForEach([&](const FlightEvent& e) { seen.push_back(e.a); });
  ASSERT_EQ(seen.size(), 64u);
  // The 64 newest events, oldest first: 136, 137, ..., 199.
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int32_t>(136 + i));
  }
}

TEST(FlightRecorderTest, RearmingClearsTheRing) {
  FlightRecorder rec;
  rec.Arm(64);
  rec.Record(Ev(1, FlightEventType::kTokenGrant, 0));
  rec.Arm(64);
  EXPECT_EQ(rec.recorded(), 0u);
  rec.Disarm();
  EXPECT_FALSE(rec.armed());
  rec.Record(Ev(2, FlightEventType::kTokenGrant, 0));
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(FlightRecorderTest, DumpLoadRoundTripPreservesEverything) {
  FlightRecorder rec;
  rec.Arm(64);
  FlightEvent e1 = Ev(1000, FlightEventType::kSlotEnd, 0, -123);
  e1.seq = 77;
  e1.b = 456;
  e1.c = 789;
  e1.flow = 5;
  e1.port = 3;
  e1.ptype = 2;
  e1.flags = kFlightRm | kFlightCe;
  e1.weight = 9;
  rec.Record(e1);
  rec.Record(Ev(2000, FlightEventType::kLinkDown, 1));

  const std::string path = TempPath("roundtrip.tfct");
  std::vector<std::string> names = {"S", "h1"};
  std::string error;
  ASSERT_TRUE(rec.Dump(path, names, &error)) << error;

  FlightDump dump;
  ASSERT_TRUE(LoadFlightDump(path, &dump, &error)) << error;
  EXPECT_EQ(dump.recorded_total, 2u);
  ASSERT_EQ(dump.nodes.size(), 2u);
  EXPECT_EQ(dump.nodes[0], "S");
  EXPECT_EQ(dump.NodeName(1), "h1");
  EXPECT_EQ(dump.NodeName(99), "");  // out of range -> fallback rendering
  ASSERT_EQ(dump.events.size(), 2u);
  const FlightEvent& r = dump.events[0];
  EXPECT_EQ(r.time, TimeNs(1000));
  EXPECT_EQ(r.seq, 77u);
  EXPECT_EQ(r.a, -123);
  EXPECT_EQ(r.b, 456);
  EXPECT_EQ(r.c, 789);
  EXPECT_EQ(r.flow, 5);
  EXPECT_EQ(r.node, 0);
  EXPECT_EQ(r.port, 3);
  EXPECT_EQ(r.type, FlightEventType::kSlotEnd);
  EXPECT_EQ(r.ptype, 2);
  EXPECT_EQ(r.flags, kFlightRm | kFlightCe);
  EXPECT_EQ(r.weight, 9);
  EXPECT_EQ(dump.events[1].type, FlightEventType::kLinkDown);
}

TEST(FlightRecorderTest, LoadRejectsCorruptFiles) {
  const std::string path = TempPath("corrupt.tfct");
  std::ofstream(path) << "not a flight dump at all";
  FlightDump dump;
  std::string error;
  EXPECT_FALSE(LoadFlightDump(path, &dump, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FlightRecorderTest, LoadRejectsTruncationOversizedCountsAndUnknownTypes) {
  FlightRecorder rec;
  rec.Arm(64);
  rec.Record(Ev(1000, FlightEventType::kSlotEnd, 0));
  rec.Record(Ev(2000, FlightEventType::kLinkDown, 0));
  const std::string path = TempPath("oversized.tfct");
  std::string error;
  ASSERT_TRUE(rec.Dump(path, {"S"}, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  const std::string good((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_EQ(good.size(), 32u + (4 + 1) + 2 * 40u);

  // Header: node_count at 12, recorded_total at 16, event_count at 24;
  // records start at 37 and carry time at +0, flow at +28, node at +32,
  // port at +34 and the type byte at +36. 2^61 extra events wrap the
  // 40-byte size product back to the true section size. The last six
  // cases are dumps the writer cannot produce: more events than were ever
  // recorded, a negative time, a time that goes backwards, and ids below
  // -1 (tools/telemetry_schema.py rejects the same).
  struct Case {
    size_t off;
    uint64_t value;
    size_t width;
    const char* error;
  };
  const Case cases[] = {
      {12, 0xffffffffu, 4, "truncated"},
      {24, 2 + (uint64_t{1} << 61), 8, "size mismatch"},
      {37 + 40 + 36, 200, 1, "event 1 has unknown type 200"},
      {16, 1, 8, "holds 2 events but only 1 were recorded"},
      {37, static_cast<uint64_t>(-7), 8, "event 0 has time -7 ns, earlier than 0 ns"},
      {37 + 40, 999, 8, "event 1 has time 999 ns, earlier than 1000 ns"},
      {37 + 28, static_cast<uint32_t>(-5), 4, "event 0 has an id below -1: flow -5"},
      {37 + 40 + 32, static_cast<uint16_t>(-2), 2, "event 1 has an id below -1: flow -1, node -2"},
      {37 + 34, static_cast<uint16_t>(-3), 2, "node 0, port -3"},
  };
  for (const Case& c : cases) {
    std::string bytes = good;
    for (size_t i = 0; i < c.width; ++i) {
      bytes[c.off + i] = static_cast<char>(c.value >> (8 * i));
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    FlightDump dump;
    EXPECT_FALSE(LoadFlightDump(path, &dump, &error)) << c.error;
    EXPECT_NE(error.find(c.error), std::string::npos) << error;
  }
  for (size_t n = 0; n < good.size(); ++n) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << good.substr(0, n);
    FlightDump dump;
    EXPECT_FALSE(LoadFlightDump(path, &dump, &error)) << "a " << n << "-byte prefix loaded";
  }
}

TEST(FlightRecorderTest, SaturatingConversionClampsPayloads) {
  EXPECT_EQ(FlightI32(int64_t{1} << 40), INT32_MAX);
  EXPECT_EQ(FlightI32(-(int64_t{1} << 40)), INT32_MIN);
  EXPECT_EQ(FlightI32(1e18), INT32_MAX);
  EXPECT_EQ(FlightI32(uint64_t{0xFFFFFFFFFFFFFFFFull}), INT32_MAX);
  EXPECT_EQ(FlightI32(int64_t{42}), 42);
}

// --- post-mortem dumps through the abort funnel -------------------------

// The death-test child aborts; the parent then loads the flight.tfct the
// child's CheckFailed funnel dumped.
TEST(FlightPostMortemTest, TfcCheckFailureDumpsArmedRecorder) {
  const std::string path = TempPath("check_postmortem.tfct");
  std::error_code ec;
  std::filesystem::remove(path, ec);
  ASSERT_DEATH(
      {
        Network net(1);
        net.flight().Arm(256);
        net.ArmFlightPostMortem(path);
        FlightEvent e = ControlFlightEvent(FlightEventType::kTokenGrant, 0, 0, 7);
        e.a = 1460;
        net.EmitFlight(e);
        TFC_CHECK_MSG(false, "deliberate failure for flight_test");
      },
      "deliberate failure for flight_test");
  FlightDump dump;
  std::string error;
  ASSERT_TRUE(LoadFlightDump(path, &dump, &error)) << error;
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].type, FlightEventType::kTokenGrant);
  EXPECT_EQ(dump.events[0].flow, 7);
}

TEST(FlightPostMortemTest, WatchdogStallAbortsAndDumpsWhenArmed) {
  const std::string path = TempPath("stall_postmortem.tfct");
  std::error_code ec;
  std::filesystem::remove(path, ec);
  ASSERT_DEATH(
      {
        Network net(1);
        net.flight().Arm(256);
        net.ArmFlightPostMortem(path);
        net.EmitFlight(ControlFlightEvent(FlightEventType::kHostDown, 0, -1, -1));
        LivenessWatchdog dog(&net.scheduler(), Milliseconds(1), Milliseconds(5));
        dog.set_abort_on_stall(true);
        dog.Watch("stuck", [] { return 0.0; }, [] { return false; });
        dog.Start();
        net.scheduler().RunUntil(Seconds(1));
      },
      "liveness watchdog");
  FlightDump dump;
  std::string error;
  ASSERT_TRUE(LoadFlightDump(path, &dump, &error)) << error;
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].type, FlightEventType::kHostDown);
}

// --- armed TFC run: passivity and causal ordering -----------------------

struct TfcRunResult {
  uint64_t executed = 0;
  uint64_t delivered = 0;
  // At the mark: the ring's recorded() and the frames on the wire.
  uint64_t recorded_at_mark = 0;
  uint64_t frames_on_wire_at_mark = 0;
  FlightDump dump;  // only filled when armed
};

constexpr TimeNs kNeverArmed = -1;
// The instant of the mark event, mid-transfer in RunTfcIncast.
constexpr TimeNs kMark = Microseconds(700);

// A 4-to-1 TFC incast on the testbed, with the ring armed at `arm_at`:
// before the run at 0, never at kNeverArmed, and by the mark event at
// kMark. Every run schedules that event first, so it has the same key in
// each; it reads the ring and the wire before it arms anything.
TfcRunResult RunTfcIncast(uint64_t seed, TimeNs arm_at) {
  Network net(seed);
  if (arm_at == 0) {
    net.flight().Arm(1 << 14);
  }
  TfcRunResult result;
  net.scheduler().ScheduleAt(kMark, [&net, &result, arm_at] {
    result.recorded_at_mark = net.flight().recorded();
    for (const auto& node : net.nodes()) {
      for (const auto& port : node->ports()) {
        result.frames_on_wire_at_mark += port->queue_packets() > 0 ? 1 : 0;
      }
    }
    if (arm_at == kMark) {
      net.flight().Arm(1 << 14);
    }
  });
  TestbedTopology topo = BuildTestbed(net);
  InstallTfcSwitches(net);
  std::vector<std::unique_ptr<TfcSender>> flows;
  for (int i = 1; i <= 4; ++i) {
    auto f = std::make_unique<TfcSender>(&net, topo.hosts[static_cast<size_t>(i)],
                                         topo.hosts[0], TfcHostConfig());
    f->Write(40 * kMssBytes);
    f->Close();
    f->Start();
    flows.push_back(std::move(f));
  }
  net.scheduler().Run();
  result.executed = net.scheduler().executed();
  for (const auto& f : flows) {
    result.delivered += f->delivered_bytes();
  }
  if (net.flight().armed()) {
    net.flight().ForEach(
        [&](const FlightEvent& e) { result.dump.events.push_back(e); });
    result.dump.recorded_total = net.flight().recorded();
  }
  return result;
}

TEST(FlightCausalityTest, ArmingTheRecorderIsPurelyPassive) {
  const TfcRunResult off = RunTfcIncast(7, kNeverArmed);
  const TfcRunResult on = RunTfcIncast(7, 0);
  EXPECT_EQ(off.executed, on.executed);
  EXPECT_EQ(off.delivered, on.delivered);
  EXPECT_GT(on.dump.recorded_total, 0u);
}

// Each record is made by the event it describes, so a ring armed mid-run
// holds exactly the records a ring armed from the start took after that
// instant, frames already on the wire included.
TEST(FlightCausalityTest, ArmingMidRunRecordsTheSuffixOfAFullRing) {
  const TfcRunResult full = RunTfcIncast(5, 0);
  const TfcRunResult late = RunTfcIncast(5, kMark);
  EXPECT_EQ(full.executed, late.executed);
  ASSERT_EQ(full.dump.events.size(), full.dump.recorded_total) << "the ring wrapped";
  ASSERT_GT(full.recorded_at_mark, 0u);
  ASSERT_LT(full.recorded_at_mark, full.dump.recorded_total) << "the run ended before the mark";
  EXPECT_GT(late.frames_on_wire_at_mark, 0u) << "the mark must fall while frames serialize";

  const std::vector<FlightEvent>& want = full.dump.events;
  const std::vector<FlightEvent>& got = late.dump.events;
  ASSERT_EQ(got.size(), want.size() - full.recorded_at_mark);
  for (size_t i = 0; i < got.size(); ++i) {
    const FlightEvent& w = want[full.recorded_at_mark + i];
    ASSERT_EQ(std::memcmp(&got[i], &w, sizeof(FlightEvent)), 0)
        << "record " << i << " after the mark: type " << static_cast<int>(got[i].type)
        << " at " << got[i].time << " ns, want type " << static_cast<int>(w.type) << " at "
        << w.time << " ns";
  }
}

TEST(FlightCausalityTest, ArmedTfcRunHasCausallyOrderedControlPlane) {
  const TfcRunResult r = RunTfcIncast(3, 0);
  const std::vector<FlightEvent>& events = r.dump.events;
  ASSERT_FALSE(events.empty());

  // Timestamps are monotone oldest-first (the ring preserves record order).
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time) << "at index " << i;
  }

  // Per flow: the acquisition probe precedes the first RMA, which precedes
  // the first data enqueue (no data moves before the window arrives).
  for (int flow = 1; flow <= 4; ++flow) {
    int64_t probe_at = -1, rma_at = -1, data_at = -1;
    for (const FlightEvent& e : events) {
      if (e.flow != flow) {
        continue;
      }
      if (e.type == FlightEventType::kProbeSend && probe_at < 0) {
        probe_at = e.time.count();
      } else if (e.type == FlightEventType::kRmaReceive && rma_at < 0) {
        rma_at = e.time.count();
      } else if (e.type == FlightEventType::kEnqueue && data_at < 0 &&
                 e.ptype == static_cast<uint8_t>(PacketType::kData) && e.a > 0) {
        data_at = e.time.count();
      }
    }
    SCOPED_TRACE("flow=" + std::to_string(flow));
    ASSERT_GE(probe_at, 0);
    ASSERT_GE(rma_at, 0);
    ASSERT_GE(data_at, 0);
    EXPECT_LE(probe_at, rma_at);
    EXPECT_LE(rma_at, data_at);
  }

  // Per port: slot_begin/slot_end alternate, and every grant lies inside an
  // adopted delimiter regime (an adopt or slot event was seen on that port).
  int begins = 0, ends = 0;
  for (const FlightEvent& e : events) {
    if (e.type == FlightEventType::kSlotBegin) {
      ++begins;
    } else if (e.type == FlightEventType::kSlotEnd) {
      ++ends;
    }
  }
  EXPECT_GT(begins, 0);
  EXPECT_GT(ends, 0);
  EXPECT_GE(begins, ends);  // every completed slot opened first
}

// --- export smoke -------------------------------------------------------

TEST(FlightExportTest, ExportedPerfettoTraceIsWellFormed) {
  const std::string dir = testing::TempDir() + "/tfc_flight_export";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  Network net(11);
  net.flight().Arm(1 << 14);
  TestbedTopology topo = BuildTestbed(net);
  InstallTfcSwitches(net);
  auto f = std::make_unique<TfcSender>(&net, topo.hosts[1], topo.hosts[0],
                                       TfcHostConfig());
  f->Write(20 * kMssBytes);
  f->Close();
  f->Start();
  net.scheduler().Run();
  std::string error;
  ASSERT_TRUE(net.DumpFlight(dir + "/flight.tfct", &error)) << error;
  ASSERT_TRUE(ExportFlightTrace(dir, &error)) << error;

  std::ifstream in(dir + "/trace.perfetto.json");
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // slot spans
  // Async flow spans are balanced begin/end pairs.
  size_t b = 0, e = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"b\"", pos)) != std::string::npos) {
    ++b;
    pos += 8;
  }
  pos = 0;
  while ((pos = json.find("\"ph\":\"e\"", pos)) != std::string::npos) {
    ++e;
    pos += 8;
  }
  EXPECT_GT(b, 0u);
  EXPECT_EQ(b, e);

  std::ifstream flows_in(dir + "/flows.txt");
  ASSERT_TRUE(flows_in.good());
  std::string flows((std::istreambuf_iterator<char>(flows_in)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(flows.find("=== flow "), std::string::npos);
}

}  // namespace
}  // namespace tfc
