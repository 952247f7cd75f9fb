// Crash-isolated run supervisor (src/sim/supervisor.h).
//
// The contracts under test are the ones `tfcsim --sweep` leans on: a child
// that aborts (even through the TFC_CHECK/audit funnel, with a post-mortem
// flight dump) takes only itself down and the files it left are
// inventoried; a hung child is SIGKILLed at the deadline; completed runs
// leave a done marker that --resume verifies before skipping; and a failed
// run re-executed by --resume with the same seed produces byte-identical
// output to a clean run — supervision changes *whether* a run executes,
// never what it computes.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/sim/audit.h"
#include "src/sim/supervisor.h"
#include "src/sim/telemetry.h"
#include "src/workload/scenario.h"

namespace tfc {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << p;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void WriteFile(const fs::path& p, const std::string& contents) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f << contents;
}

SupervisorOptions WithWorkers(int workers) {
  SupervisorOptions o;
  o.workers = workers;
  return o;
}

// A self-contained micro incast run that exports a telemetry run directory —
// what a real sweep job does, scaled down. Runs *in the forked child*.
int RunMicroIncast(uint64_t seed, const std::string& run_dir,
                   std::string* report) {
  Scenario s;
  s.seed = seed;
  s.senders = 4;
  s.incast.block_bytes = 32 * 1024;
  s.incast.rounds = 1;
  ScenarioRun run(s);
  Network& net = run.net();

  TimeSeriesRecorder recorder(&net.scheduler(), &net.metrics());
  recorder.WatchPrefix("port.");
  recorder.WatchPrefix("incast.");
  recorder.Start(Microseconds(500));
  run.Start();
  run.Run();
  recorder.Stop();

  RunManifest manifest;
  manifest.SetInt("seed", static_cast<int64_t>(seed));
  std::string error;
  if (!WriteRunDirectory(run_dir, manifest, net.metrics(), &recorder,
                         &net.profiler(), &error)) {
    *report += "export failed: " + error + "\n";
    return 1;
  }
  *report += "rounds=" + std::to_string(run.incast()->rounds_completed()) + "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Pure mechanics: done markers
// ---------------------------------------------------------------------------

TEST(SupervisorTest, DoneMarkerRoundTrip) {
  const fs::path dir = FreshDir("tfc_supervisor_marker");
  const std::string key = SweepCacheKey("workload=incast|senders=4", 7);
  EXPECT_NE(key.find("|seed=7"), std::string::npos);
  EXPECT_NE(key.find("|sweep_schema=" + std::to_string(kSweepSchemaVersion)),
            std::string::npos);

  // No marker yet.
  EXPECT_FALSE(RunSupervisor::DoneMarkerMatches(dir.string(), key));
  std::string error;
  ASSERT_TRUE(RunSupervisor::WriteDoneMarker(dir.string(), key, &error)) << error;
  EXPECT_TRUE(RunSupervisor::DoneMarkerMatches(dir.string(), key));

  // The marker holds the full key, and matching compares the whole file.
  const std::string contents =
      ReadFile(fs::path(RunSupervisor::DoneMarkerPath(dir.string())));
  EXPECT_EQ(contents, RunSupervisor::DoneMarkerContents(key));
  EXPECT_EQ(contents, "tfc-run-done v2\nkey " + key + "\n");

  // A different key (config drift, new git describe, schema bump) must not
  // verify; neither must a corrupted marker.
  EXPECT_FALSE(RunSupervisor::DoneMarkerMatches(
      dir.string(), SweepCacheKey("workload=incast|senders=4", 8)));
  WriteFile(RunSupervisor::DoneMarkerPath(dir.string()), contents + "x");
  EXPECT_FALSE(RunSupervisor::DoneMarkerMatches(dir.string(), key));
  // Empty key/dir never match (uncacheable runs).
  EXPECT_FALSE(RunSupervisor::DoneMarkerMatches(dir.string(), ""));
  EXPECT_FALSE(RunSupervisor::DoneMarkerMatches("", key));
}

// ---------------------------------------------------------------------------
// Crash isolation
// ---------------------------------------------------------------------------

TEST(SupervisorTest, AbortingChildIsIsolatedAndReportsSignal) {
  const fs::path dir = FreshDir("tfc_supervisor_abort");
  RunSupervisor sup(WithWorkers(3));
  sup.Add("ok-0", "", "", [](std::string* report) {
    *report = "first fine\n";
    return 0;
  });
  sup.Add("crashes", (dir / "crash").string(), "",
          [&](std::string* report) -> int {
            fs::create_directories(dir / "crash");
            WriteFile(dir / "crash" / "partial.bin", "partial artifact");
            *report = "about to abort\n";  // lost: never reaches the pipe flush
            std::abort();
          });
  sup.Add("ok-2", "", "", [](std::string* report) {
    *report = "second fine\n";
    return 0;
  });

  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 3u);

  // Siblings of the crashed run completed normally.
  EXPECT_EQ(results[0].status, RunStatus::kOk);
  EXPECT_EQ(results[0].report, "first fine\n");
  EXPECT_EQ(results[2].status, RunStatus::kOk);
  EXPECT_EQ(results[2].report, "second fine\n");

  // The crash is classified, not propagated.
  EXPECT_EQ(results[1].status, RunStatus::kFailed);
  EXPECT_EQ(results[1].term_signal, SIGABRT);
  EXPECT_EQ(results[1].exit_code, 128 + SIGABRT);
  EXPECT_NE(results[1].report.find("killed by signal"), std::string::npos);
  // Artifacts the dead child left behind are inventoried.
  ASSERT_EQ(results[1].salvaged.size(), 1u);
  EXPECT_EQ(results[1].salvaged[0], "partial.bin");
}

TEST(SupervisorTest, AuditTripInChildSalvagesFlightPostMortem) {
  // The full tfcsim crash path in miniature: the child arms the flight
  // recorder, registers the post-mortem dump, and trips an audit — the
  // TFC_CHECK funnel dumps flight.tfct and aborts. The parent must classify
  // the SIGABRT and inventory the dump for the manifest.
  const fs::path dir = FreshDir("tfc_supervisor_trip");
  const std::string run_dir = (dir / "run").string();
  RunSupervisor sup(WithWorkers(1));
  sup.Add("tripped", run_dir, "", [run_dir](std::string* report) {
    Scenario s;
    s.seed = 3;
    s.senders = 4;
    s.incast.block_bytes = 64 * 1024;
    s.incast.rounds = 4;
    ScenarioRun run(s);
    Network& net = run.net();
    net.flight().Arm(1024);
    std::error_code ec;
    fs::create_directories(run_dir, ec);
    net.ArmFlightPostMortem(run_dir + "/flight.tfct");
    net.EnableAudit(Microseconds(50));
    Network* net_ptr = &net;
    ScopedAudit trip(&net.audit(), "supervisor_test.trip",
                     [net_ptr](Auditor& a) {
                       a.Check(net_ptr->scheduler().now() < Microseconds(200),
                               "forced trip");
                     });
    run.Start();
    run.Run();  // aborts at the 200us audit tick
    *report += "unreachable\n";
    return 0;
  });

  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::kFailed);
  EXPECT_EQ(results[0].term_signal, SIGABRT);
  ASSERT_FALSE(results[0].salvaged.empty());
  EXPECT_NE(std::find(results[0].salvaged.begin(), results[0].salvaged.end(),
                      std::string("flight.tfct")),
            results[0].salvaged.end());
  // The salvaged post-mortem is a real, non-empty dump.
  EXPECT_GT(fs::file_size(fs::path(run_dir) / "flight.tfct"), 0u);
}

TEST(SupervisorTest, HungChildIsKilledAtDeadline) {
  SupervisorOptions o = WithWorkers(1);
  o.timeout_s = 0.2;
  RunSupervisor sup(o);
  sup.Add("hangs", "", "", [](std::string*) {
    for (;;) {
      sleep(1);
    }
    return 0;
  });
  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::kTimeout);
  EXPECT_EQ(results[0].term_signal, SIGKILL);
  EXPECT_EQ(results[0].exit_code, 128 + SIGKILL);
  EXPECT_NE(results[0].report.find("timed out"), std::string::npos);
}

TEST(SupervisorTest, ThrowPreservesPartialReportAndMapsToExit70) {
  // Partial output buffered before the throw must survive into the result —
  // the child catches, appends the message, and ships the report over the
  // pipe before exiting 70 (EX_SOFTWARE).
  RunSupervisor sup(WithWorkers(1));
  sup.Add("throws", "", "", [](std::string* report) -> int {
    *report += "progress before the explosion\n";
    throw std::runtime_error("boom");
  });
  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::kFailed);
  EXPECT_EQ(results[0].exit_code, 70);
  EXPECT_EQ(results[0].term_signal, 0);
  EXPECT_NE(results[0].report.find("progress before the explosion"),
            std::string::npos);
  EXPECT_NE(results[0].report.find("boom"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

TEST(SupervisorTest, ResumeSkipsVerifiedRunsAndExecutesTheRest) {
  const fs::path dir = FreshDir("tfc_supervisor_resume");
  const std::string key_a = SweepCacheKey("cfg", 1);
  const std::string key_b = SweepCacheKey("cfg", 2);
  const std::string run_a = (dir / "run-a").string();
  const std::string run_b = (dir / "run-b").string();

  // First sweep: run A succeeds (marker written), run B aborts (no marker).
  {
    RunSupervisor sup(WithWorkers(2));
    sup.Add("a", run_a, key_a, [](std::string* r) {
      *r = "a ran\n";
      return 0;
    });
    sup.Add("b", run_b, key_b, [](std::string*) -> int { std::abort(); });
    std::vector<SupervisedResult> results = sup.Run();
    EXPECT_EQ(results[0].status, RunStatus::kOk);
    EXPECT_EQ(results[1].status, RunStatus::kFailed);
    EXPECT_TRUE(RunSupervisor::DoneMarkerMatches(run_a, key_a));
    EXPECT_FALSE(RunSupervisor::DoneMarkerMatches(run_b, key_b));
  }

  // Resume: A is skipped without forking (its side effect would be visible),
  // B re-executes and completes.
  {
    SupervisorOptions o = WithWorkers(2);
    o.resume = true;
    RunSupervisor sup(o);
    const fs::path a_reran = dir / "a_reran";
    sup.Add("a", run_a, key_a, [a_reran](std::string*) {
      WriteFile(a_reran, "x");
      return 0;
    });
    sup.Add("b", run_b, key_b, [](std::string* r) {
      *r = "b recovered\n";
      return 0;
    });
    std::vector<SupervisedResult> results = sup.Run();
    EXPECT_EQ(results[0].status, RunStatus::kSkippedCached);
    EXPECT_FALSE(fs::exists(a_reran)) << "skipped run must not fork";
    EXPECT_EQ(results[1].status, RunStatus::kOk);
    EXPECT_EQ(results[1].report, "b recovered\n");
    EXPECT_TRUE(RunSupervisor::DoneMarkerMatches(run_b, key_b));
  }

  // A stale key (config drift) invalidates the cache: A re-executes.
  {
    SupervisorOptions o = WithWorkers(1);
    o.resume = true;
    RunSupervisor sup(o);
    sup.Add("a", run_a, SweepCacheKey("cfg-changed", 1), [](std::string* r) {
      *r = "a re-ran under new config\n";
      return 0;
    });
    std::vector<SupervisedResult> results = sup.Run();
    EXPECT_EQ(results[0].status, RunStatus::kOk);
    EXPECT_EQ(results[0].report, "a re-ran under new config\n");
  }
}

// ---------------------------------------------------------------------------
// Determinism: supervision never changes what a run computes
// ---------------------------------------------------------------------------

TEST(SupervisorTest, ResumedRunIsByteIdenticalToACleanRun) {
  const fs::path dir = FreshDir("tfc_supervisor_bitident");
  const std::string clean_dir = (dir / "clean").string();
  const std::string resumed_dir = (dir / "resumed").string();
  constexpr uint64_t kSeed = 77;
  const std::string key = SweepCacheKey("micro-incast", kSeed);

  // Clean reference: one supervised run, no drama.
  {
    RunSupervisor sup(WithWorkers(1));
    sup.Add("clean", clean_dir, "", [clean_dir](std::string* report) {
      return RunMicroIncast(kSeed, clean_dir, report);
    });
    std::vector<SupervisedResult> results = sup.Run();
    ASSERT_EQ(results[0].status, RunStatus::kOk) << results[0].report;
  }

  // Same run, but it crashes mid-run after a partial write: the failure is
  // final, and the partial stays where the run wrote it.
  {
    RunSupervisor sup(WithWorkers(1));
    sup.Add("resumed", resumed_dir, key, [resumed_dir](std::string*) -> int {
      fs::create_directories(resumed_dir);
      WriteFile(fs::path(resumed_dir) / "metrics.tfcb", "garbage partial");
      std::abort();
    });
    std::vector<SupervisedResult> results = sup.Run();
    ASSERT_EQ(results[0].status, RunStatus::kFailed);
    EXPECT_EQ(results[0].salvaged, std::vector<std::string>{"metrics.tfcb"});
  }

  // Resume re-executes the failed run (it left no done marker) and must
  // reproduce the clean run bit for bit (same seed, fresh process).
  {
    SupervisorOptions o = WithWorkers(1);
    o.resume = true;
    RunSupervisor sup(o);
    sup.Add("resumed", resumed_dir, key, [resumed_dir](std::string* report) {
      return RunMicroIncast(kSeed, resumed_dir, report);
    });
    std::vector<SupervisedResult> results = sup.Run();
    ASSERT_EQ(results[0].status, RunStatus::kOk) << results[0].report;
  }

  for (const char* file : {"metrics.tfcb", "summary.json"}) {
    EXPECT_EQ(ReadFile(fs::path(clean_dir) / file),
              ReadFile(fs::path(resumed_dir) / file))
        << file;
  }
}

// ---------------------------------------------------------------------------
// Manifest plumbing
// ---------------------------------------------------------------------------

TEST(SupervisorTest, ManifestRecordsPerRunStatusSignalAndSalvage) {
  const fs::path dir = FreshDir("tfc_supervisor_manifest");
  RunSupervisor sup(WithWorkers(2));
  sup.Add("good", "", "", [](std::string*) { return 0; });
  const std::string crash_dir = (dir / "crash").string();
  sup.Add("bad", crash_dir, "", [crash_dir](std::string*) -> int {
    fs::create_directories(crash_dir);
    WriteFile(fs::path(crash_dir) / "flight.tfct", "dump");
    std::abort();
  });
  std::vector<SupervisedResult> results = sup.Run();

  const std::string path = (dir / "sweep.json").string();
  RunManifest extra;
  extra.Set("tool", "supervisor_test");
  std::string error;
  ASSERT_TRUE(WriteSweepManifest(path, extra, results, &error)) << error;
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_EQ(json.find("\"attempts\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
  std::ostringstream sig;
  sig << "\"signal\": " << SIGABRT;
  EXPECT_NE(json.find(sig.str()), std::string::npos);
  EXPECT_NE(json.find("\"salvaged\": [\"flight.tfct\"]"), std::string::npos);
}

}  // namespace
}  // namespace tfc
