// Parallel sweeps (src/sim/supervisor.h) + multi-instance
// thread-compatibility of the simulator core.
//
// The contract under test is the one the Fig. 15/16 large-scale sweeps
// depend on: running N independent simulations as N concurrent children
// must produce *bit-identical* per-run output to running them one at a
// time — the worker count changes wall-clock, never results. The
// MultiInstance tests are the regression tests for the shared-state sweep
// (process-wide caches such as GitDescribe) and are the designated prey of
// the tsan preset: any hidden cross-simulation mutable state shows up here
// as a TSan report.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/sim/supervisor.h"
#include "src/sim/telemetry.h"
#include "src/topo/topologies.h"
#include "src/workload/scenario.h"

namespace tfc {
namespace {

Protocol ProtocolForIndex(int i) {
  switch (i % 3) {
    case 0:
      return Protocol::kTfc;
    case 1:
      return Protocol::kDctcp;
    default:
      return Protocol::kTcp;
  }
}

// One self-contained Fig. 4 testbed incast run: builds its own Network,
// runs to completion, and (when `dir` is non-empty) exports a telemetry run
// directory. Returns a compact result line so sweeps can also be compared
// without touching the filesystem.
std::string RunTestbedIncast(uint64_t seed, Protocol protocol, const std::string& dir) {
  Scenario s;
  s.topology = Topology::kTestbed;
  s.suite.protocol = protocol;
  s.seed = seed;
  s.senders = 6;
  s.incast.block_bytes = 64 * 1024;
  s.incast.rounds = 2;
  ScenarioRun run(s);
  Network& net = run.net();

  TimeSeriesRecorder recorder(&net.scheduler(), &net.metrics());
  for (const char* prefix : {"port.", "tfc.", "flow.", "sim.", "pool."}) {
    recorder.WatchPrefix(prefix);
  }
  recorder.Start(Microseconds(500));
  run.Start();
  run.Run();
  recorder.Stop();

  if (!dir.empty()) {
    RunManifest manifest;
    manifest.Set("protocol", ProtocolName(protocol));
    manifest.SetInt("seed", static_cast<int64_t>(seed));
    std::string error;
    EXPECT_TRUE(WriteRunDirectory(dir, manifest, net.metrics(), &recorder,
                                  &net.profiler(), &error))
        << error;
  }

  std::ostringstream line;
  line << ProtocolName(protocol) << " seed=" << seed
       << " rounds=" << run.incast()->rounds_completed()
       << " goodput=" << run.incast()->goodput_bps()
       << " executed=" << net.scheduler().executed();
  return line.str();
}

// ---------------------------------------------------------------------------
// Parallel == serial, bit for bit
// ---------------------------------------------------------------------------

std::string ReadFile(const std::filesystem::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << p;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// manifest.json carries wall-clock fields (created_unix/created_utc) that
// legitimately differ between two executions; every *simulation-derived*
// field must still match exactly, so compare line by line minus those keys.
std::string StripWallClockFields(const std::string& json) {
  std::istringstream in(json);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"created_unix\"") != std::string::npos ||
        line.find("\"created_utc\"") != std::string::npos) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

TEST(SweepTest, EightRunParallelSweepIsBitIdenticalToSerial) {
  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "tfc_sweep_bitident";
  std::filesystem::remove_all(base);
  constexpr int kRuns = 8;

  // Mixed TFC/DCTCP/TCP over the Fig. 4 testbed, distinct seeds — the same
  // grid twice: once one child at a time, once 8 children at once. The
  // result lines cross back to the parent over the report pipe.
  std::vector<std::string> serial_lines;
  std::vector<std::string> parallel_lines;
  for (const char* mode : {"serial", "parallel"}) {
    SupervisorOptions options;
    options.workers = mode == std::string("serial") ? 1 : 8;
    RunSupervisor supervisor(options);
    for (int i = 0; i < kRuns; ++i) {
      const std::string dir = (base / mode / ("run-" + std::to_string(i))).string();
      const uint64_t seed = 100 + static_cast<uint64_t>(i);
      const Protocol protocol = ProtocolForIndex(i);
      supervisor.Add("run-" + std::to_string(i), "", "",
                     [seed, protocol, dir](std::string* report) {
                       *report = RunTestbedIncast(seed, protocol, dir);
                       return 0;
                     });
    }
    for (const SupervisedResult& r : supervisor.Run()) {
      ASSERT_EQ(r.status, RunStatus::kOk) << r.name << ": " << r.report;
      ASSERT_NE(r.report.find(" executed="), std::string::npos) << r.report;
      (mode == std::string("serial") ? serial_lines : parallel_lines)
          .push_back(r.report);
    }
  }

  // Same results, in the same order.
  ASSERT_EQ(serial_lines.size(), parallel_lines.size());
  for (size_t i = 0; i < serial_lines.size(); ++i) {
    EXPECT_EQ(serial_lines[i], parallel_lines[i]) << "run " << i;
  }

  // Same bytes on disk, file for file.
  for (int i = 0; i < kRuns; ++i) {
    const std::string run = "run-" + std::to_string(i);
    for (const char* file : {"metrics.tfcb", "summary.json"}) {
      EXPECT_EQ(ReadFile(base / "serial" / run / file),
                ReadFile(base / "parallel" / run / file))
          << run << "/" << file;
    }
    EXPECT_EQ(StripWallClockFields(ReadFile(base / "serial" / run / "manifest.json")),
              StripWallClockFields(ReadFile(base / "parallel" / run / "manifest.json")))
        << run << "/manifest.json";
  }
}

// ---------------------------------------------------------------------------
// Fault-spec sweep: the replay-equality contract survives concurrent children
// ---------------------------------------------------------------------------

// A seeded fault schedule over the testbed (parsed from the same spec string
// the CLI accepts), reporting every injector counter plus per-flow delivery —
// the field-for-field replay signature from tests/chaos_test.cc.
std::string RunFaultCase(uint64_t seed) {
  Network net(seed);
  net.EnableAudit(Milliseconds(1));
  TestbedTopology topo = BuildTestbed(net);
  InstallTfcSwitches(net);

  FaultSpec spec;
  std::string error;
  const std::string text =
      "drop=0.004,ge=0.01/0.3/0.6,flap=2ms/300us,wipe=8ms,start=1ms,stop=30ms,seed=" +
      std::to_string(seed * 977 + 13);
  EXPECT_TRUE(FaultSpec::Parse(text, &spec, &error)) << error;
  FaultInjector inject(&net, spec.seed);
  inject.ApplySpec(spec);

  ProtocolSuite suite;
  constexpr int kPairs[4][2] = {{0, 3}, {1, 6}, {4, 2}, {7, 5}};
  std::vector<std::unique_ptr<ReliableSender>> flows;
  for (const auto& pair : kPairs) {
    auto f = suite.MakeSender(&net, topo.hosts[static_cast<size_t>(pair[0])],
                              topo.hosts[static_cast<size_t>(pair[1])]);
    f->Write(96 * 1024);
    f->Close();
    f->Start();
    flows.push_back(std::move(f));
  }
  net.scheduler().RunUntil(Seconds(10));

  std::ostringstream line;
  line << "seed=" << seed << " executed=" << net.scheduler().executed()
       << " drops=" << inject.drops() << " dups=" << inject.dups()
       << " reorders=" << inject.reorders() << " wipes=" << inject.agent_wipes()
       << " transitions=" << inject.link_transitions()
       << " down_ns=" << inject.link_down_ns();
  for (const auto& f : flows) {
    line << " d=" << f->delivered_bytes();
  }
  line << " audit_ok=" << net.RunAudit().ok();
  return line.str();
}

TEST(SweepTest, FaultSpecSweepReplaysIdenticallyAcrossPoolSizes) {
  constexpr int kRuns = 6;
  std::vector<std::string> by_pool[2];
  int which = 0;
  for (int workers : {1, 6}) {
    SupervisorOptions options;
    options.workers = workers;
    RunSupervisor supervisor(options);
    for (int i = 0; i < kRuns; ++i) {
      const uint64_t seed = 7 + static_cast<uint64_t>(i);
      supervisor.Add("fault-" + std::to_string(i), "", "",
                     [seed](std::string* report) {
                       *report = RunFaultCase(seed);
                       return 0;
                     });
    }
    for (const SupervisedResult& r : supervisor.Run()) {
      ASSERT_EQ(r.status, RunStatus::kOk) << r.name << ": " << r.report;
      by_pool[which].push_back(r.report);
    }
    ++which;
  }
  ASSERT_EQ(by_pool[0].size(), by_pool[1].size());
  for (size_t i = 0; i < by_pool[0].size(); ++i) {
    EXPECT_EQ(by_pool[0][i], by_pool[1][i]) << "fault case " << i;
    // The schedule actually injected something.
    EXPECT_NE(by_pool[0][i].find(" drops="), std::string::npos);
    EXPECT_EQ(by_pool[0][i].find(" drops=0 "), std::string::npos) << by_pool[0][i];
  }
}

// ---------------------------------------------------------------------------
// Multi-instance thread compatibility (the shared-state regression tests)
// ---------------------------------------------------------------------------

TEST(MultiInstanceTest, TwoSimulationsRunConcurrentlyFromTwoThreads) {
  // Two full simulations, two protocols, constructed and destroyed on two
  // plain threads with overlapping lifetimes. Before the shared-state sweep
  // this was undefined behavior waiting to be scheduled (shared telemetry
  // caches); now it must produce exactly the single-threaded results.
  const std::string expect_a =
      RunTestbedIncast(/*seed=*/41, Protocol::kTfc, /*dir=*/"");
  const std::string expect_b =
      RunTestbedIncast(/*seed=*/42, Protocol::kDctcp, /*dir=*/"");

  std::string got_a;
  std::string got_b;
  std::thread ta([&got_a] { got_a = RunTestbedIncast(41, Protocol::kTfc, ""); });
  std::thread tb([&got_b] { got_b = RunTestbedIncast(42, Protocol::kDctcp, ""); });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, expect_a);
  EXPECT_EQ(got_b, expect_b);
}

TEST(MultiInstanceTest, ConcurrentManifestExportsShareTheGitDescribeCache) {
  // GitDescribe() is the one process-wide cache in the telemetry layer
  // (popen, filled once, guarded by a tfc::Mutex). Hammer it from several
  // threads while manifests export — TSan verifies the guard, and every
  // caller must observe the same value.
  const std::string first = GitDescribe();
  std::vector<std::thread> threads;
  std::vector<std::string> seen(8);
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([t, &seen] { seen[t] = GitDescribe(); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const std::string& s : seen) {
    EXPECT_EQ(s, first);
  }
}

}  // namespace
}  // namespace tfc
