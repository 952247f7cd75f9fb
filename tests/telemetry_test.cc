// Telemetry layer tests: registry mechanics (ownership, collisions, compiled
// reads), recorder cadence/drain semantics, and the run exporter's formats
// (round-tripped through the schema the files promise in
// docs/observability.md). Every metric is a callback gauge; a test that
// needs a value to move owns it as a local and registers a gauge over it.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/profile.h"
#include "src/sim/scheduler.h"
#include "src/sim/telemetry.h"

namespace tfc {
namespace {

// --- MetricRegistry ---------------------------------------------------------

TEST(MetricRegistryTest, CountersGaugesAndCallbacksReadBack) {
  MetricRegistry registry;
  uint64_t c = 0;
  double g = 0.0;
  ScopedMetrics c_owner(&registry);
  c_owner.AddCallbackGauge("c", [&c] { return static_cast<double>(c); });
  registry.AddCallbackGauge("g", [&g] { return g; });
  double source = 7.5;
  registry.AddCallbackGauge("cb", [&source] { return source; });

  c += 1;
  c += 41;
  g = -2.25;

  double v = 0;
  ASSERT_TRUE(registry.Read("c", &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
  ASSERT_TRUE(registry.Read("g", &v));
  EXPECT_DOUBLE_EQ(v, -2.25);
  ASSERT_TRUE(registry.Read("cb", &v));
  EXPECT_DOUBLE_EQ(v, 7.5);
  source = 8.5;
  ASSERT_TRUE(registry.Read("cb", &v));
  EXPECT_DOUBLE_EQ(v, 8.5);

  EXPECT_FALSE(registry.Read("missing", &v));
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_TRUE(registry.Has("c"));
  c_owner.Reset(nullptr);
  EXPECT_FALSE(registry.Has("c"));
}

TEST(MetricRegistryDeathTest, DuplicateNameAborts) {
  MetricRegistry registry;
  registry.AddCallbackGauge("dup", [] { return 0.0; });
  EXPECT_DEATH(registry.AddCallbackGauge("dup", [] { return 1.0; }),
               "duplicate metric name: dup");
  // A name has one owner: a scoped registration cannot take it over either,
  // whether a direct or another scoped registration holds it.
  ScopedMetrics first(&registry);
  first.AddCallbackGauge("scoped", [] { return 2.0; });
  ScopedMetrics second(&registry);
  EXPECT_DEATH(second.AddCallbackGauge("dup", [] { return 3.0; }),
               "duplicate metric name: dup");
  EXPECT_DEATH(second.AddCallbackGauge("scoped", [] { return 3.0; }),
               "duplicate metric name: scoped");
}

TEST(ScopedMetricsTest, UnregistersOnDestructionAndReset) {
  MetricRegistry registry;
  {
    ScopedMetrics scoped(&registry);
    scoped.AddCallbackGauge("s.c", [] { return 1.0; });
    scoped.AddCallbackGauge("s.g", [] { return 2.0; });
    EXPECT_EQ(registry.size(), 2u);
    scoped.Reset(&registry);  // rebind unregisters previous names
    EXPECT_EQ(registry.size(), 0u);
    scoped.AddCallbackGauge("s.h", [] { return 3.0; });
    EXPECT_EQ(registry.size(), 1u);
  }
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricRegistryTest, CompiledReadsAndGenerationTracking) {
  MetricRegistry registry;
  const uint64_t gen0 = registry.generation();
  uint64_t c = 0;
  ScopedMetrics c_owner(&registry);
  c_owner.AddCallbackGauge("c", [&c] { return static_cast<double>(c); });
  registry.AddCallbackGauge("h", nullptr);
  registry.AddCallbackGauge("b", [] { return 5.0; });
  EXPECT_GT(registry.generation(), gen0);  // registration bumps

  MetricRegistry::CompiledRead read;
  ASSERT_TRUE(registry.CompileRead("c", &read));
  c += 42;
  EXPECT_DOUBLE_EQ(read.fn(read.obj), 42.0);
  EXPECT_FALSE(registry.CompileRead("h", &read));  // an empty callback reads nothing
  EXPECT_FALSE(registry.CompileRead("missing", &read));

  // The ordered pass hands out the same reads, by name, minus empty callbacks.
  std::vector<std::string> seen;
  registry.ForEachRead([&seen](const std::string& name, MetricRegistry::CompiledRead r) {
    seen.push_back(name + "=" + std::to_string(static_cast<int>(r.fn(r.obj))));
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"b=5", "c=42"}));

  // Unregistering (the owner's Reset) and registering both bump the
  // generation, which is what tells holders of compiled reads to recompile.
  const uint64_t gen1 = registry.generation();
  c_owner.Reset(nullptr);
  EXPECT_GT(registry.generation(), gen1);
  EXPECT_FALSE(registry.CompileRead("c", &read));
  ScopedMetrics owner(&registry);
  const uint64_t gen2 = registry.generation();
  owner.AddCallbackGauge("d", [] { return 7.0; });
  EXPECT_GT(registry.generation(), gen2);
  ASSERT_TRUE(registry.CompileRead("d", &read));
  EXPECT_DOUBLE_EQ(read.fn(read.obj), 7.0);
}

// --- TimeSeriesRecorder -----------------------------------------------------

TEST(TimeSeriesRecorderTest, SamplesOnCadenceWithoutPerturbingPending) {
  Scheduler sched;
  MetricRegistry registry;
  double g = 0.0;
  registry.AddCallbackGauge("g", [&g] { return g; });

  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.Watch("g");
  recorder.Start(Microseconds(10));

  // The armed daemon tick is invisible to user-event accounting.
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.daemon_pending(), 1u);

  // A user event ramps the gauge; drain-mode Run() must return even though
  // the recorder would re-arm forever.
  sched.ScheduleAt(Microseconds(25), [&g] { g = 1.0; });
  sched.Run();
  EXPECT_EQ(sched.pending(), 0u);

  // Ticks at t=0, 10us, 20us fired before the queue drained (the 25us user
  // event kept the 20us tick eligible; the re-armed 30us tick did not run).
  std::vector<TimeSeriesRecorder::Sample> s = recorder.Series("g");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].t, 0);
  EXPECT_EQ(s[1].t, Microseconds(10));
  EXPECT_EQ(s[2].t, Microseconds(20));
  EXPECT_DOUBLE_EQ(s[2].v, 0.0);  // gauge set at 25us, after the 20us tick

  recorder.Stop();
  EXPECT_EQ(sched.daemon_pending(), 0u);
  EXPECT_FALSE(recorder.running());
}

TEST(TimeSeriesRecorderTest, FirstDelayAndRestartRepace) {
  Scheduler sched;
  MetricRegistry registry;
  registry.AddCallbackGauge("g", [] { return 3.0; });

  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.Watch("g");
  recorder.Start(Microseconds(10), /*first_delay=*/Microseconds(5));
  sched.ScheduleAt(Microseconds(16), [] {});
  sched.Run();
  std::vector<TimeSeriesRecorder::Sample> s = recorder.Series("g");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].t, Microseconds(5));
  EXPECT_EQ(s[1].t, Microseconds(15));

  // Restart re-paces from "now" with the new period.
  recorder.Start(Microseconds(2));
  sched.ScheduleAt(Microseconds(21), [] {});
  sched.Run();
  s = recorder.Series("g");
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s[2].t, Microseconds(16));
  EXPECT_EQ(s[3].t, Microseconds(18));
  EXPECT_EQ(s[4].t, Microseconds(20));
  EXPECT_EQ(recorder.ticks(), 5u);
}

TEST(TimeSeriesRecorderTest, PrefixWatchPicksUpLateMetrics) {
  Scheduler sched;
  MetricRegistry registry;
  registry.AddCallbackGauge("app.early", [] { return 1.0; });

  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.WatchPrefix("app.");
  recorder.Start(Microseconds(10));
  sched.ScheduleAt(Microseconds(15), [&registry] {
    registry.AddCallbackGauge("app.late", [] { return 2.0; });
  });
  sched.ScheduleAt(Microseconds(21), [] {});
  sched.Run();

  EXPECT_EQ(recorder.Series("app.early").size(), 3u);  // t=0,10,20
  std::vector<TimeSeriesRecorder::Sample> late = recorder.Series("app.late");
  ASSERT_EQ(late.size(), 1u);  // only the t=20us tick saw it
  EXPECT_EQ(late[0].t, Microseconds(20));
  EXPECT_EQ(recorder.SeriesNames(),
            (std::vector<std::string>{"app.early", "app.late"}));
}

TEST(TimeSeriesRecorderTest, DuplicateWatchRecordsOneSamplePerTick) {
  Scheduler sched;
  MetricRegistry registry;
  registry.AddCallbackGauge("g", [] { return 1.0; });

  TimeSeriesRecorder recorder(&sched, &registry);
  // Redundant watches of every flavor must still record exactly one sample
  // per tick (watches_ used to be an un-deduped vector: each duplicate
  // exact watch appended its own sample).
  recorder.Watch("g");
  recorder.Watch("g");
  recorder.WatchPrefix("g");
  recorder.WatchPrefix("g");
  recorder.Start(Microseconds(10));
  sched.ScheduleAt(Microseconds(21), [] {});
  sched.Run();

  EXPECT_EQ(recorder.Series("g").size(), 3u);  // t=0,10,20 — one each
}

TEST(TimeSeriesRecorderTest, CachedPlanMatchesFreshPlanUnderRegistryChurn) {
  // Two recorders over the same registry: one uses the cached sample plan
  // (rebuilt only on registry-generation change), the reference rebuilds
  // from strings on every tick. ScopedMetrics churn — a component destroyed
  // and replaced mid-run — must leave their series identical.
  Scheduler sched;
  MetricRegistry registry;
  registry.AddCallbackGauge("app.stable", [] { return 1.0; });

  auto churn = std::make_unique<ScopedMetrics>(&registry);
  churn->AddCallbackGauge("churn.q", [] { return 10.0; });

  TimeSeriesRecorder cached(&sched, &registry);
  TimeSeriesRecorder fresh(&sched, &registry);
  fresh.set_replan_every_tick_for_test(true);
  for (TimeSeriesRecorder* r : {&cached, &fresh}) {
    r->Watch("churn.q");
    r->WatchPrefix("app.");
    r->Start(Microseconds(10));
  }

  sched.ScheduleAt(Microseconds(15), [&churn] {
    churn.reset();  // component dies: churn.q and its id disappear
  });
  sched.ScheduleAt(Microseconds(35), [&churn, &registry] {
    // Replacement component re-registers the same name (new id) plus a new
    // prefix-matched metric the next plan must pick up.
    churn = std::make_unique<ScopedMetrics>(&registry);
    churn->AddCallbackGauge("churn.q", [] { return 20.0; });
    churn->AddCallbackGauge("app.late", [] { return 2.0; });
  });
  sched.ScheduleAt(Microseconds(51), [] {});
  sched.Run();

  // Ticks at 0,10,20,30,40,50: churn.q recorded at 0,10 (v=10) and 40,50
  // (v=20); app.late at 40,50; app.stable at every tick.
  std::vector<TimeSeriesRecorder::Sample> q = cached.Series("churn.q");
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q[1].t, Microseconds(10));
  EXPECT_DOUBLE_EQ(q[1].v, 10.0);
  EXPECT_EQ(q[2].t, Microseconds(40));
  EXPECT_DOUBLE_EQ(q[2].v, 20.0);
  EXPECT_EQ(cached.Series("app.late").size(), 2u);
  EXPECT_EQ(cached.Series("app.stable").size(), 6u);

  ASSERT_EQ(cached.SeriesNames(), fresh.SeriesNames());
  for (const std::string& name : cached.SeriesNames()) {
    std::vector<TimeSeriesRecorder::Sample> a = cached.Series(name);
    std::vector<TimeSeriesRecorder::Sample> b = fresh.Series(name);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].t, b[i].t) << name << "[" << i << "]";
      EXPECT_DOUBLE_EQ(a[i].v, b[i].v) << name << "[" << i << "]";
    }
  }
  // Re-planning every tick yields the same epochs, so the logs match too.
  EXPECT_EQ(cached.log().change_count(), fresh.log().change_count());
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(TimeSeriesRecorderTest, LogStoresChangedBitsAndReplaysEverySample) {
  // One value per tick, compared by bits: NaN repeats are no change, while
  // 0.0 after -0.0 is one (they compare equal as doubles).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {1, 1, 2, 2, nan, nan, -0.0, 0.0, 0.0, 5};
  Scheduler sched;
  MetricRegistry registry;
  double g = 0.0;
  registry.AddCallbackGauge("g", [&g] { return g; });
  registry.AddCallbackGauge("flat", [] { return 7.0; });
  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.WatchAll();
  recorder.Start(Microseconds(10));
  for (size_t i = 0; i < values.size(); ++i) {
    sched.ScheduleAt(Microseconds(10) * static_cast<int64_t>(i) + 5,
                     [&g, v = values[i]] { g = v; });
  }
  sched.ScheduleAt(Microseconds(10) * static_cast<int64_t>(values.size()) + 1, [] {});
  sched.Run();

  // t=0 samples the initial 0, then one tick after each Set.
  const std::vector<TimeSeriesRecorder::Sample> s = recorder.Series("g");
  ASSERT_EQ(s.size(), values.size() + 1);
  EXPECT_EQ(Bits(s[0].v), Bits(0.0));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s[i + 1].t, Microseconds(10) * static_cast<int64_t>(i + 1));
    EXPECT_EQ(Bits(s[i + 1].v), Bits(values[i])) << "tick " << i + 1;
  }
  EXPECT_EQ(recorder.Series("flat").size(), values.size() + 1);
  EXPECT_EQ(recorder.total_samples(), 2 * (values.size() + 1));
  // g stores its first sample and the changes to 1, 2, NaN, -0, 0 and 5;
  // flat stores only its first.
  EXPECT_EQ(recorder.log().change_count(), 7u + 1u);
}

TEST(TimeSeriesRecorderTest, ReturningSeriesCarriesItsLastStoredValue) {
  // A metric that leaves and comes back with the value it left with stores
  // nothing on return; its samples still cover exactly the ticks it was
  // watched at.
  Scheduler sched;
  MetricRegistry registry;
  auto churn = std::make_unique<ScopedMetrics>(&registry);
  churn->AddCallbackGauge("q", [] { return 10.0; });
  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.WatchPrefix("q");
  recorder.Start(Microseconds(10));
  sched.ScheduleAt(Microseconds(15), [&churn] { churn.reset(); });
  sched.ScheduleAt(Microseconds(35), [&churn, &registry] {
    churn = std::make_unique<ScopedMetrics>(&registry);
    churn->AddCallbackGauge("q", [] { return 10.0; });
  });
  sched.ScheduleAt(Microseconds(41), [] {});
  sched.Run();

  const std::vector<TimeSeriesRecorder::Sample> q = recorder.Series("q");
  ASSERT_EQ(q.size(), 3u);  // t=0, 10, 40; gone at 20 and 30
  EXPECT_EQ(q[2].t, Microseconds(40));
  EXPECT_DOUBLE_EQ(q[2].v, 10.0);
  EXPECT_EQ(recorder.log().change_count(), 1u);
  EXPECT_EQ(recorder.ticks(), 5u);
}

TEST(ExporterTest, SpillLoadsBackToTheRecordedLog) {
  // Registry churn gives the log several epochs; the loaded copy must
  // replay every series exactly as the recorder does.
  Scheduler sched;
  MetricRegistry registry;
  double q = 0.0;
  registry.AddCallbackGauge("app.q", [&q] { return q; });
  auto churn = std::make_unique<ScopedMetrics>(&registry);
  churn->AddCallbackGauge("app.churn", [] { return 3.0; });
  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.WatchPrefix("app.");
  recorder.Start(Microseconds(10));
  for (int i = 1; i < 8; ++i) {
    sched.ScheduleAt(Microseconds(10 * i + 5), [&q, i] { q = static_cast<double>(i % 3); });
  }
  sched.ScheduleAt(Microseconds(25), [&churn] { churn.reset(); });
  sched.ScheduleAt(Microseconds(45), [&registry] {
    registry.AddCallbackGauge("app.late", [] { return 1.0; });
  });
  sched.ScheduleAt(Microseconds(81), [] {});
  sched.Run();

  const std::string dir = testing::TempDir() + "/telemetry_reload";
  std::filesystem::create_directories(dir);
  std::string error;
  ASSERT_TRUE(recorder.log().Write(dir + "/m.tfcb", &error)) << error;
  SeriesLog loaded;
  ASSERT_TRUE(loaded.Load(dir + "/m.tfcb", &error)) << error;
  EXPECT_EQ(loaded.tick_count(), recorder.ticks());
  EXPECT_EQ(loaded.change_count(), recorder.log().change_count());
  EXPECT_EQ(loaded.sample_count(), recorder.total_samples());
  ASSERT_EQ(loaded.series_count(), 3u);
  std::vector<std::string> names;
  for (uint32_t sid = 0; sid < loaded.series_count(); ++sid) {
    names.push_back(loaded.name(sid));
    const std::vector<SeriesLog::Sample> want = recorder.Series(loaded.name(sid));
    const std::vector<SeriesLog::Sample> got = loaded.Samples(sid);
    ASSERT_EQ(got.size(), want.size()) << loaded.name(sid);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].t, want[i].t);
      EXPECT_EQ(Bits(got[i].v), Bits(want[i].v));
    }
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, recorder.SeriesNames());
}

// --- Exporter ---------------------------------------------------------------

std::string Slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(ExporterTest, JsonEscapeAndNumber) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("tab\there\n"), "tab\\there\\n");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");

  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonNumber(2.5), "2.5");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(ExporterTest, RunDirectoryGoldenRoundTrip) {
  Scheduler sched;
  MetricRegistry registry;
  Profiler profiler;
  uint64_t events = 3;  // a count the component keeps, exported as a gauge
  registry.AddCallbackGauge("events", [&events] { return static_cast<double>(events); });
  double q = 0.0;
  registry.AddCallbackGauge("queue", [&q] { return q; });
  ProfileSite* site = profiler.Site("test.site");
  site->Hit();
  site->AddSim(50);

  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.Watch("queue");
  recorder.Start(Microseconds(10));
  sched.ScheduleAt(Microseconds(5), [&q] { q = 1500.0; });
  sched.ScheduleAt(Microseconds(12), [] {});
  sched.Run();
  recorder.Stop();

  RunManifest manifest;
  manifest.Set("workload", "unit\"test");
  manifest.SetInt("seed", 7);
  manifest.SetDouble("duration_s", 0.5);
  manifest.SetBool("quick", true);

  const std::string dir = testing::TempDir() + "/telemetry_golden";
  std::string error;
  ASSERT_TRUE(WriteRunDirectory(dir, manifest, registry, &recorder, &profiler,
                                &error))
      << error;

  // The spill loads back to the recorded samples: the t=0 baseline and the
  // value at the 10 us tick.
  SeriesLog loaded;
  ASSERT_TRUE(loaded.Load(dir + "/metrics.tfcb", &error)) << error;
  ASSERT_EQ(loaded.series_count(), 1u);
  EXPECT_EQ(loaded.name(0), "queue");
  const std::vector<SeriesLog::Sample> samples = loaded.Samples(0);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].t, 0);
  EXPECT_EQ(samples[0].v, 0.0);
  EXPECT_EQ(samples[1].t, Microseconds(10));
  EXPECT_EQ(samples[1].v, 1500.0);

  // The spill itself: header, the name "queue", one epoch of one series,
  // two ticks, and two stored values (the t=0 baseline and the change).
  const std::string tfcb = Slurp(dir + "/metrics.tfcb");
  EXPECT_EQ(tfcb.substr(0, 4), "TFCB");
  EXPECT_EQ(tfcb.size(),
            kTfcbHeaderBytes + (4 + 5) + (8 + 4 + 4) + 2 * (8 + 8) + 2 * (4 + 8));

  // The manifest carries the verbatim run section (with escaping) plus the
  // exporter's own provenance keys.
  const std::string manifest_text = Slurp(dir + "/manifest.json");
  EXPECT_NE(manifest_text.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(manifest_text.find("\"git_describe\": "), std::string::npos);
  EXPECT_NE(manifest_text.find("\"workload\": \"unit\\\"test\""), std::string::npos);
  EXPECT_NE(manifest_text.find("\"seed\": 7"), std::string::npos);
  EXPECT_NE(manifest_text.find("\"duration_s\": 0.5"), std::string::npos);
  EXPECT_NE(manifest_text.find("\"quick\": true"), std::string::npos);

  // summary.json, whole: every gauge's final value in name order (the
  // count among them; there are no counters or histograms sections), and
  // the profiler site exactly once, under "profile".
  EXPECT_EQ(Slurp(dir + "/summary.json"),
            "{\n"
            "  \"schema_version\": 3,\n"
            "  \"gauges\": {\n"
            "    \"events\": 3,\n"
            "    \"queue\": 1500\n"
            "  },\n"
            "  \"profile\": {\n"
            "    \"test.site\": {\"hits\": 1, \"sim_ns\": 50, \"wall_ns\": 0}\n"
            "  }\n"
            "}\n");
}

TEST(ExporterTest, NullRecorderWritesHeaderOnlySpillThatLoadsEmpty) {
  MetricRegistry registry;
  RunManifest manifest;
  const std::string dir = testing::TempDir() + "/telemetry_empty";
  std::string error;
  ASSERT_TRUE(WriteRunDirectory(dir, manifest, registry, nullptr, nullptr,
                                &error))
      << error;
  EXPECT_EQ(Slurp(dir + "/metrics.tfcb").size(), kTfcbHeaderBytes);  // no payload
  SeriesLog loaded;
  ASSERT_TRUE(loaded.Load(dir + "/metrics.tfcb", &error)) << error;
  EXPECT_EQ(loaded.series_count(), 0u);
  EXPECT_EQ(loaded.tick_count(), 0u);
}

// Two gauges a (constant 1) and b (2, then 3) watched in that order and
// sampled at t=0 and t=10us: the smallest log with two series, and the
// byte offsets of its fields in metrics.tfcb (pinned by the size check).
struct TinyLog {
  static constexpr size_t kVersion = 4;
  static constexpr size_t kSeriesCount = 8;
  static constexpr size_t kTickCount = 16;
  static constexpr size_t kNameA = 32;       // u32 len, "a"
  static constexpr size_t kNameB = 37;       // u32 len, "b"
  static constexpr size_t kEpochFirst = 42;  // u64
  static constexpr size_t kEpochWidth = 50;  // u32
  static constexpr size_t kEpochSids = 54;   // 2 x u32
  static constexpr size_t kTicks = 62;       // 2 x {i64 t, u64 end}
  static constexpr size_t kSids = 94;        // 3 x u32
  static constexpr size_t kSize = 130;       // + 3 x f64

  static std::string Write(const std::string& dir) {
    Scheduler sched;
    MetricRegistry registry;
    double b = 2.0;
    registry.AddCallbackGauge("a", [] { return 1.0; });
    registry.AddCallbackGauge("b", [&b] { return b; });
    TimeSeriesRecorder recorder(&sched, &registry);
    recorder.Watch("a");
    recorder.Watch("b");
    recorder.Start(Microseconds(10));
    sched.ScheduleAt(Microseconds(5), [&b] { b = 3.0; });
    sched.ScheduleAt(Microseconds(12), [] {});
    sched.Run();
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/tiny.tfcb";
    std::string error;
    EXPECT_TRUE(recorder.log().Write(path, &error)) << error;
    return path;
  }
};

void Poke(std::string* bytes, size_t off, uint64_t v, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    (*bytes)[off + i] = static_cast<char>(v >> (8 * i));
  }
}

void Put(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(ExporterTest, LoadRejectsEveryTruncationAndTrailingBytes) {
  const std::string dir = testing::TempDir() + "/telemetry_truncate";
  const std::string path = TinyLog::Write(dir);
  const std::string good = Slurp(path);
  ASSERT_EQ(good.size(), TinyLog::kSize);
  SeriesLog log;
  std::string error;
  EXPECT_FALSE(log.Load(dir + "/missing.tfcb", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
  ASSERT_TRUE(log.Load(path, &error)) << error;

  const std::string cut = dir + "/cut.tfcb";
  for (size_t n = 0; n < good.size(); ++n) {
    Put(cut, good.substr(0, n));
    EXPECT_FALSE(log.Load(cut, &error)) << "a " << n << "-byte prefix loaded";
  }
  Put(cut, good + '\0');
  EXPECT_FALSE(log.Load(cut, &error));
  // A failed Load leaves the last good log in place.
  EXPECT_EQ(log.series_count(), 2u);
  EXPECT_EQ(log.tick_count(), 2u);
}

TEST(ExporterTest, LoadRejectsInconsistentLogs) {
  const std::string dir = testing::TempDir() + "/telemetry_inconsistent";
  const std::string good = Slurp(TinyLog::Write(dir));
  ASSERT_EQ(good.size(), TinyLog::kSize);
  struct Case {
    size_t off;
    uint64_t value;
    size_t width;
    const char* error;
  };
  const Case cases[] = {
      {TinyLog::kVersion, 1, 4, "unsupported TFCB version 1"},
      // An oversized name table runs into the epoch table, whose zero
      // first_tick reads as an empty third name.
      {TinyLog::kSeriesCount, 0xffffffffu, 4, "series 2 has an empty name"},
      {TinyLog::kNameB, 0xffff, 4, "truncated name table"},
      {TinyLog::kNameA, 0, 4, "series 0 has an empty name"},
      {TinyLog::kNameB + 4, 'a', 1, "duplicate series name a"},
      {TinyLog::kEpochFirst, 1, 8, "epoch 0 starts at tick 1 of 2"},
      {TinyLog::kEpochWidth, 0x7fffffffu, 4, "truncated epoch table"},
      {TinyLog::kEpochSids + 4, 7, 4, "epoch 0 samples series 7 of 2"},
      {TinyLog::kEpochSids + 4, 0, 4, "epoch 0 samples series 0 twice"},
      {TinyLog::kTickCount, 1000, 8, "header promises 1000 ticks"},
      {TinyLog::kTicks + 16, ~uint64_t{0}, 8, "tick 1 goes back in time"},
      {TinyLog::kTicks + 8, 4, 8, "tick 0 ends its changes at 4"},
      {TinyLog::kTicks + 24, 2, 8, "3 changes, but the last tick ends at 2"},
      {TinyLog::kSids + 8, 5, 4, "change 2 stores series 5"},
      {TinyLog::kSids + 4, 0, 4, "series b is sampled at tick 0 before it has a value"},
  };
  const std::string path = dir + "/bad.tfcb";
  for (const Case& c : cases) {
    std::string bytes = good;
    Poke(&bytes, c.off, c.value, c.width);
    Put(path, bytes);
    SeriesLog log;
    std::string error;
    EXPECT_FALSE(log.Load(path, &error)) << c.error;
    EXPECT_NE(error.find(c.error), std::string::npos)
        << "want '" << c.error << "', got '" << error << "'";
  }
}

TEST(ExporterTest, WriteFailureReportsError) {
  MetricRegistry registry;
  RunManifest manifest;
  std::string error;
  EXPECT_FALSE(WriteRunDirectory("/proc/definitely/not/writable", manifest,
                                 registry, nullptr, nullptr, &error));
  EXPECT_FALSE(error.empty());
}

// --- Profiler ---------------------------------------------------------------

TEST(ProfilerTest, ScopesCountHitsPerSite) {
  Profiler profiler;
  ProfileSite* site = profiler.Site("x.y");
  EXPECT_EQ(profiler.Site("x.y"), site);  // get-or-create
  EXPECT_EQ(profiler.site_count(), 1u);

  {
    ProfileScope scope(&profiler, site);
  }
  {
    ProfileScope scope(&profiler, site);
  }
  EXPECT_EQ(site->hits(), 2u);

  // Disabled profiler (the default unless TFC_PROFILE is set): hits count,
  // wall clock is never read.
  if (!profiler.enabled()) {
    EXPECT_EQ(site->wall_ns(), 0u);
  }

  // Null-safe: a scope on a component with no profiler wired is a no-op.
  ProfileScope inert(nullptr, nullptr);
}

}  // namespace
}  // namespace tfc
