// tfcsim — scenario driver for the TFC simulator.
//
// One binary to run any combination of workload, protocol, and topology
// from the command line and get a standard report (goodput, FCT, queues,
// loss), with optional packet tracing.
//
//   ./tfcsim --workload=incast --protocol=tfc --senders=60
//   ./tfcsim --workload=shuffle --protocol=dctcp --topology=fattree
//   ./tfcsim --workload=longflows --protocol=tcp --flows=8 --duration=2
//   ./tfcsim --workload=benchmark --protocol=tfc --topology=leafspine
//   ./tfcsim --help          (every flag, with its default)

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/net/fault.h"
#include "src/net/trace.h"
#include "src/sim/supervisor.h"
#include "src/sim/telemetry.h"
#include "src/workload/scenario.h"

namespace {

using namespace tfc;

struct Options {
  std::string workload = "incast";
  Workload workload_id = Workload::kIncast;  // `workload`, looked up in main()
  std::string protocol = "tfc";
  std::string topology = "star";
  Topology topology_id = Topology::kStar;    // `topology`, looked up in main()
  int senders = 40;
  int flows = 4;
  uint64_t block_kb = 256;
  int rounds = 10;
  double duration_s = 1.0;
  uint64_t gbps = 1;
  uint64_t seed = 1;
  std::string telemetry_dir;
  std::string fault_spec;
  uint64_t telemetry_interval_us = 1000;
  int sweep = 1;
  int jobs = 0;  // 0 = RunSupervisor::DefaultWorkers()
  uint64_t trace_ring = 0;  // flight-recorder capacity (0 = disarmed)
  std::string export_trace_dir;
  uint64_t force_audit_trip_us = 0;  // schedule a failing audit (testing)
  int trip_run = -1;        // sweep repetition the forced trip applies to (-1 = all)
  double run_timeout_s = 0; // supervised sweeps: per-run wall-clock limit
  bool resume = false;      // supervised sweeps: skip done-marker-verified runs
  double watchdog_s = -1;   // no-progress stall threshold (sim s); -1 = default
};

// Buffered per-run output: sweep jobs must never write to stdout directly
// (parallel runs would interleave), so every run appends to the caller's
// string and main() prints reports in submission order. Identical bytes
// whether the run executed in this process or in a forked child.
// Writing *through* to the result slot (instead of copying at job end)
// preserves everything written before a mid-run throw or crash.
struct Report {
  explicit Report(std::string* out) : text(*out) {}
  std::string& text;

  __attribute__((format(printf, 2, 3))) void Printf(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    char buf[1024];
    const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    if (n > 0) {
      text.append(buf, std::min(static_cast<size_t>(n), sizeof buf - 1));
    }
  }
};

void PrintHelp() {
  std::puts(
      "tfcsim - TFC simulator scenario driver\n"
      "  --workload=incast|shuffle|longflows|benchmark   (default incast)\n"
      "  --protocol=tfc|dctcp|tcp|all                    (default tfc)\n"
      "  --topology=star|testbed|leafspine|fattree       (default star)\n"
      "  --senders=N      incast responders               (default 40)\n"
      "  --flows=N        longflows/shuffle participants  (default 4)\n"
      "  --block_kb=N     incast block / shuffle block    (default 256)\n"
      "  --rounds=N       incast rounds                   (default 10)\n"
      "  --duration=S     longflows/benchmark seconds     (default 1.0)\n"
      "  --gbps=N         edge link rate                  (default 1)\n"
      "  --seed=N         RNG seed                        (default 1)\n"
      "  --trace-ring=N   arm the flight recorder with an N-event ring; the\n"
      "                   ring dumps to flight.tfct (next to metrics.tfcb when\n"
      "                   --telemetry-dir is set) at end of run and on any\n"
      "                   audit/TFC_CHECK/watchdog abort\n"
      "  --export-trace=DIR        read DIR/flight.tfct and write DIR/trace.txt\n"
      "                            (ns-2 style text, one line per event),\n"
      "                            DIR/trace.perfetto.json (load in Perfetto)\n"
      "                            and DIR/flows.txt, then exit\n"
      "  --force-audit-trip=US     register an audit invariant that fails once\n"
      "                            sim time reaches US microseconds (exercises\n"
      "                            the post-mortem dump path; testing only)\n"
      "  --telemetry-dir=DIR       write a telemetry run directory\n"
      "                            (manifest.json, metrics.tfcb, summary.json)\n"
      "  --telemetry-interval=US   recorder sampling period (default 1000 us)\n"
      "  --fault-spec=SPEC         deterministic fault schedule, e.g.\n"
      "                            drop=0.01,ge=0.02/0.3/0.5,flap=5ms/500us,\n"
      "                            wipe=10ms,host_down=4ms+1ms,seed=7\n"
      "                            (keys: drop dup reorder reorder_delay ge\n"
      "                             flap wipe host_down start stop seed)\n"
      "  --sweep=N        run N repetitions with seeds seed..seed+N-1;\n"
      "                   telemetry lands in DIR/run-NNNN, DIR/sweep.json merges;\n"
      "                   each run executes in its own forked child (a crashing\n"
      "                   run cannot take the sweep down)\n"
      "  --jobs=J         concurrent sweep runs (default: hardware threads)\n"
      "  --run-timeout=S  SIGKILL a sweep run after S wall-clock seconds\n"
      "  --resume         skip sweep runs whose done marker verifies against\n"
      "                   (config, seed, git describe, schema) and re-run the\n"
      "                   rest, failed runs included; needs --telemetry-dir\n"
      "  --trip-run=K     apply --force-audit-trip to sweep repetition K only\n"
      "  --watchdog=S     abort a run that makes no progress for S sim-seconds\n"
      "                   (default: 5 in sweep mode, off single-run; 0 disables)");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

// Parses all of `text` as a base-10 number in [lo, hi]. Unlike atoi or
// atof, a trailing "x", a non-number, an empty value or a sign on an
// unsigned flag is an error, not 3, 0 s or a wrapped-around rate. For a
// double, NaN passes any bounds; main()'s finiteness check rejects it, along
// with inf and values too large for int64 nanoseconds.
template <typename T>
bool ParseNumber(const std::string& text, std::type_identity_t<T> lo,
                 std::type_identity_t<T> hi, T* out) {
  const char* end = text.data() + text.size();
  T v{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

// Finds `name` in a {name, value} table; false when it is not there.
template <typename T, size_t N>
bool Lookup(const std::pair<const char*, T> (&table)[N], const std::string& name,
            T* out) {
  for (const auto& [key, value] : table) {
    if (name == key) {
      *out = value;
      return true;
    }
  }
  return false;
}

constexpr std::pair<const char*, Topology> kTopologies[] = {
    {"star", Topology::kStar}, {"testbed", Topology::kTestbed},
    {"leafspine", Topology::kLeafSpine}, {"fattree", Topology::kFatTree}};
constexpr std::pair<const char*, Workload> kWorkloads[] = {
    {"incast", Workload::kIncast}, {"shuffle", Workload::kShuffle},
    {"longflows", Workload::kLongFlows}, {"benchmark", Workload::kBenchmark}};

Scenario MakeScenario(const Options& opt, Protocol protocol) {
  Scenario s;
  s.topology = opt.topology_id;
  s.workload = opt.workload_id;
  s.suite.protocol = protocol;
  s.seed = opt.seed;
  s.link_bps = opt.gbps * kGbps;
  s.senders = opt.senders;
  s.flows = opt.flows;
  s.incast.block_bytes = opt.block_kb * 1024;
  s.incast.rounds = opt.rounds;
  s.shuffle.block_bytes = opt.block_kb * 1024;
  s.benchmark.stop_time = Seconds(opt.duration_s);
  // Incast and shuffle drain: the run ends when the workload does, and
  // recorder daemon ticks never keep it alive. The benchmark gets 30 s past
  // its last arrival for stragglers.
  if (s.workload == Workload::kLongFlows) {
    s.horizon = Seconds(opt.duration_s);
  } else if (s.workload == Workload::kBenchmark) {
    s.horizon = Seconds(opt.duration_s) + Seconds(30);
  }
  return s;
}

struct PortTotals {
  uint64_t drops = 0;
  Bytes max_queue = 0;
};

PortTotals SwitchTotals(const Network& net) {
  PortTotals totals;
  for (const auto& node : net.nodes()) {
    if (node->is_host()) {
      continue;
    }
    for (const auto& port : node->ports()) {
      totals.drops += port->drops();
      totals.max_queue = std::max(totals.max_queue, port->max_queue_bytes());
    }
  }
  return totals;
}

int RunOne(const Options& opt, Protocol protocol, const std::string& run_dir,
           Report& rep) {
  ScenarioRun run(MakeScenario(opt, protocol));
  Network& net = run.net();

  // Flight recorder: arm the ring before any workload traffic, and register
  // the post-mortem path immediately so an abort at *any* later point (audit
  // trip, TFC_CHECK, watchdog stall) still drains the ring to disk. The dump
  // directory must exist before the trip, not after.
  std::string flight_path;
  if (opt.trace_ring > 0) {
    net.flight().Arm(static_cast<size_t>(opt.trace_ring));
    if (run_dir.empty()) {
      flight_path = "flight.tfct";
    } else {
      std::error_code ec;
      std::filesystem::create_directories(run_dir, ec);
      flight_path = run_dir + "/flight.tfct";
    }
    net.ArmFlightPostMortem(flight_path);
  }

  // Forced audit trip (testing): an invariant that holds until the requested
  // sim time, then fails — the next periodic AuditTick aborts through the
  // TFC_CHECK funnel, which dumps the armed flight recorder first.
  std::unique_ptr<ScopedAudit> forced_trip;
  if (opt.force_audit_trip_us > 0) {
    net.EnableAudit(Microseconds(100));
    const TimeNs trip_at =
        Microseconds(static_cast<int64_t>(opt.force_audit_trip_us));
    Network* net_ptr = &net;
    forced_trip = std::make_unique<ScopedAudit>(
        &net.audit(), "tfcsim.forced_trip", [net_ptr, trip_at](Auditor& a) {
          a.Check(net_ptr->scheduler().now() < trip_at,
                  "forced audit trip (--force-audit-trip)");
        });
  }

  // Liveness watchdog (default-on in sweep mode): samples the total bytes
  // every port has transmitted; a workload that is neither done nor moving
  // any bytes for watchdog_s sim-seconds aborts through the TFC_CHECK
  // funnel, which drains any armed flight recorder to flight.tfct first.
  // Ticks are daemon events, so the watchdog never keeps drain-mode Run()
  // alive and never perturbs what the simulation computes.
  std::unique_ptr<LivenessWatchdog> watchdog;
  if (opt.watchdog_s > 0) {
    watchdog = std::make_unique<LivenessWatchdog>(&net.scheduler(),
                                                  Seconds(opt.watchdog_s / 4.0),
                                                  Seconds(opt.watchdog_s));
    watchdog->set_abort_on_stall(true);
  }

  // The injector owns daemon timers into the scheduler, so it must die
  // before the Network: declare it after `run`.
  std::unique_ptr<FaultInjector> inject;
  if (!opt.fault_spec.empty()) {
    FaultSpec spec;
    std::string error;
    if (!FaultSpec::Parse(opt.fault_spec, &spec, &error)) {
      rep.Printf("bad --fault-spec: %s\n", error.c_str());
      return 1;
    }
    inject = std::make_unique<FaultInjector>(&net, spec.seed);
    inject->ApplySpec(spec);
  }

  // Telemetry: watch every component prefix (prefixes re-expand on each
  // tick, so flows and apps registered below are picked up automatically).
  std::unique_ptr<TimeSeriesRecorder> recorder;
  if (!run_dir.empty()) {
    recorder = std::make_unique<TimeSeriesRecorder>(&net.scheduler(), &net.metrics());
    for (const char* prefix : {"port.", "tfc.", "flow.", "sim.", "pool.", "incast."}) {
      recorder->WatchPrefix(prefix);
    }
    recorder->Start(Microseconds(static_cast<int64_t>(opt.telemetry_interval_us)));
  }

  rep.Printf("--- %s | %s | %s ---\n", ProtocolName(protocol), opt.workload.c_str(),
              opt.topology.c_str());
  if (opt.workload_id == Workload::kIncast &&
      static_cast<size_t>(opt.senders) + 1 > run.hosts().size()) {
    rep.Printf("topology too small for %d senders\n", opt.senders);
    return 1;
  }
  run.Start();
  if (watchdog != nullptr) {
    // Persistent flows are never "done": only the duration horizon ends the
    // run, so any sustained silence is a genuine stall.
    LivenessWatchdog::DoneFn done = [] { return false; };
    if (opt.workload_id == Workload::kIncast) {
      done = [app_ptr = run.incast(), rounds = opt.rounds] {
        return app_ptr->rounds_completed() >= rounds;
      };
    } else if (opt.workload_id == Workload::kShuffle) {
      done = [app_ptr = run.shuffle()] {
        return app_ptr->flows_completed() >= app_ptr->flows_total();
      };
    } else if (opt.workload_id == Workload::kBenchmark) {
      done = [app_ptr = run.benchmark(), net_ptr = &net, stop = Seconds(opt.duration_s)] {
        return net_ptr->scheduler().now() >= stop &&
               app_ptr->flows_completed() >= app_ptr->flows_started();
      };
    }
    watchdog->Watch(
        "workload",
        [net_ptr = &net] {
          double total = 0;
          for (const auto& node : net_ptr->nodes()) {
            for (const auto& port : node->ports()) {
              total += static_cast<double>(port->tx_bytes());
            }
          }
          return total;
        },
        std::move(done));
    watchdog->Start();
  }
  run.Run();

  const PortTotals totals = SwitchTotals(net);
  if (opt.workload_id == Workload::kIncast) {
    const IncastApp& app = *run.incast();
    if (recorder != nullptr) {
      // Block FCT summaries land in summary.json as gauges over the
      // computed numbers: each flow's, then every block merged. The run is
      // over, so no series records them.
      // The samples are whole ns; each number is converted to µs once.
      const auto add = [&net](std::string name, double v) {
        net.metrics().AddCallbackGauge(std::move(name), [v] { return v; });
      };
      const auto add_us = [&add](std::string name, double ns) { add(std::move(name), ns / 1e3); };
      for (size_t i = 0; i < app.flows().size(); ++i) {
        SampleSet fcts = app.block_fcts_ns(i);
        const std::string prefix = "incast.flow" + std::to_string(i);
        add_us(prefix + ".fct_mean_us", fcts.Mean());
        add_us(prefix + ".fct_p99_us", fcts.Percentile(99));
        add_us(prefix + ".fct_max_us", fcts.Max());
      }
      SampleSet merged = app.MergedBlockFctsNs();
      const std::string prefix = "incast." + run.hosts()[0]->name() + ".block_fct_";
      add(prefix + "count", static_cast<double>(merged.count()));
      add_us(prefix + "mean_us", merged.Mean());
      add_us(prefix + "p50_us", merged.Percentile(50));
      add_us(prefix + "p99_us", merged.Percentile(99));
      add_us(prefix + "p999_us", merged.Percentile(99.9));
      add_us(prefix + "max_us", merged.Max());
    }
    rep.Printf("rounds=%d/%d goodput=%.1fMbps timeouts=%llu maxTO/block=%.2f "
                "drops=%llu maxq=%.1fKB\n",
                app.rounds_completed(), opt.rounds, app.goodput_bps() / 1e6,
                static_cast<unsigned long long>(app.total_timeouts()),
                app.max_timeouts_per_block(),
                static_cast<unsigned long long>(totals.drops),
                static_cast<double>(totals.max_queue) / 1024.0);
  } else if (opt.workload_id == Workload::kShuffle) {
    const ShuffleApp& app = *run.shuffle();
    rep.Printf("flows=%zu/%zu elapsed=%.3fs goodput=%.1fMbps timeouts=%llu "
                "drops=%llu maxq=%.1fKB\n",
                app.flows_completed(), app.flows_total(), ToSeconds(app.elapsed()),
                app.goodput_bps() / 1e6,
                static_cast<unsigned long long>(app.total_timeouts()),
                static_cast<unsigned long long>(totals.drops),
                static_cast<double>(totals.max_queue) / 1024.0);
  } else if (opt.workload_id == Workload::kLongFlows) {
    const std::vector<std::unique_ptr<PersistentFlow>>& flows = run.long_flows();
    uint64_t delivered = 0;
    for (const auto& f : flows) {
      delivered += f->delivered_bytes();
    }
    rep.Printf("flows=%zu goodput=%.1fMbps drops=%llu maxq=%.1fKB\n", flows.size(),
                static_cast<double>(delivered) * 8.0 / opt.duration_s / 1e6,
                static_cast<unsigned long long>(totals.drops),
                static_cast<double>(totals.max_queue) / 1024.0);
  } else {
    BenchmarkTrafficApp& app = *run.benchmark();
    rep.Printf("flows=%llu/%llu query FCT: mean=%.1fus 99th=%.1fus 99.9th=%.1fus "
                "timeouts=%llu\n",
                static_cast<unsigned long long>(app.flows_completed()),
                static_cast<unsigned long long>(app.flows_started()),
                app.fct().query().Mean(), app.fct().query().Percentile(99),
                app.fct().query().Percentile(99.9),
                static_cast<unsigned long long>(app.total_timeouts()));
  }

  if (inject != nullptr) {
    rep.Printf("faults: drops=%llu (rand=%llu burst=%llu link=%llu) dups=%llu "
                "reorders=%llu wipes=%llu link_transitions=%llu downtime=%.3fms\n",
                static_cast<unsigned long long>(inject->drops()),
                static_cast<unsigned long long>(inject->random_drops()),
                static_cast<unsigned long long>(inject->burst_drops()),
                static_cast<unsigned long long>(inject->link_drops()),
                static_cast<unsigned long long>(inject->dups()),
                static_cast<unsigned long long>(inject->reorders()),
                static_cast<unsigned long long>(inject->agent_wipes()),
                static_cast<unsigned long long>(inject->link_transitions()),
                static_cast<double>(inject->link_down_ns()) / 1e6);
  }

  if (opt.trace_ring > 0) {
    // Clean end of run: dump the ring now. The recorder stays armed (and the
    // post-mortem registration stays live) through teardown, so a violation
    // in the final audit pass still overwrites this file with the fuller
    // picture.
    std::string error;
    if (!net.DumpFlight(flight_path, &error)) {
      rep.Printf("flight dump failed: %s\n", error.c_str());
      return 1;
    }
    rep.Printf("flight: %llu event(s) in ring (%llu recorded) -> %s\n",
                static_cast<unsigned long long>(net.flight().size()),
                static_cast<unsigned long long>(net.flight().recorded()),
                flight_path.c_str());
  }

  if (recorder != nullptr) {
    recorder->Stop();
    RunManifest manifest;
    manifest.Set("tool", "tfcsim");
    manifest.Set("workload", opt.workload);
    manifest.Set("protocol", ProtocolName(protocol));
    manifest.Set("topology", opt.topology);
    manifest.SetInt("senders", opt.senders);
    manifest.SetInt("flows", opt.flows);
    manifest.SetInt("block_kb", static_cast<int64_t>(opt.block_kb));
    manifest.SetInt("rounds", opt.rounds);
    manifest.SetDouble("duration_s", opt.duration_s);
    manifest.SetInt("gbps", static_cast<int64_t>(opt.gbps));
    manifest.SetInt("seed", static_cast<int64_t>(opt.seed));
    if (!opt.fault_spec.empty()) {
      manifest.Set("fault_spec", opt.fault_spec);
    }
    manifest.SetInt("telemetry_interval_us",
                    static_cast<int64_t>(opt.telemetry_interval_us));
    manifest.SetDouble("sim_end_s", ToSeconds(net.scheduler().now()));
    std::string error;
    if (!WriteRunDirectory(run_dir, manifest, net.metrics(), recorder.get(),
                           &net.profiler(), &error)) {
      rep.Printf("telemetry export failed: %s\n", error.c_str());
      return 1;
    }
    rep.Printf("telemetry: %zu series, %llu ticks -> %s/\n",
                recorder->series_count(),
                static_cast<unsigned long long>(recorder->ticks()), run_dir.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Integer flag bounds: each value and what is derived from it must fit
  // its type (senders + 1 hosts, block_kb * 1024 bytes, microseconds as
  // int64 nanoseconds, ten times the edge rate for the leaf-spine core).
  // Seconds flags are bounded after parsing, by the checks below.
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr uint64_t kUint64Max = std::numeric_limits<uint64_t>::max();
  constexpr uint64_t kMaxUs =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) / 1000;
  constexpr uint64_t kMaxBlockKb =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) / 1024;
  constexpr uint64_t kMaxGbps = kUint64Max / (10 * kGbps.count());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Options opt;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintHelp();
      return 0;
    } else if (ParseFlag(arg, "workload", &opt.workload) ||
               ParseFlag(arg, "protocol", &opt.protocol) ||
               ParseFlag(arg, "topology", &opt.topology) ||
               ParseFlag(arg, "telemetry-dir", &opt.telemetry_dir) ||
               ParseFlag(arg, "export-trace", &opt.export_trace_dir) ||
               ParseFlag(arg, "fault-spec", &opt.fault_spec)) {
      continue;
    } else if (ParseFlag(arg, "trace-ring", &value)) {
      ok = ParseNumber(value, 0, FlightRecorder::kMaxCapacity, &opt.trace_ring);
    } else if (ParseFlag(arg, "force-audit-trip", &value)) {
      ok = ParseNumber(value, 0, kMaxUs, &opt.force_audit_trip_us);
    } else if (ParseFlag(arg, "telemetry-interval", &value)) {
      ok = ParseNumber(value, 1, kMaxUs, &opt.telemetry_interval_us);
    } else if (ParseFlag(arg, "senders", &value)) {
      ok = ParseNumber(value, 1, kIntMax - 1, &opt.senders);
    } else if (ParseFlag(arg, "flows", &value)) {
      ok = ParseNumber(value, 1, kIntMax - 1, &opt.flows);
    } else if (ParseFlag(arg, "block_kb", &value)) {
      ok = ParseNumber(value, 1, kMaxBlockKb, &opt.block_kb);
    } else if (ParseFlag(arg, "rounds", &value)) {
      ok = ParseNumber(value, 1, kIntMax, &opt.rounds);
    } else if (ParseFlag(arg, "duration", &value)) {
      ok = ParseNumber(value, -kInf, kInf, &opt.duration_s);
    } else if (ParseFlag(arg, "gbps", &value)) {
      ok = ParseNumber(value, 1, kMaxGbps, &opt.gbps);
    } else if (ParseFlag(arg, "seed", &value)) {
      ok = ParseNumber(value, 0, kUint64Max, &opt.seed);
    } else if (ParseFlag(arg, "sweep", &value)) {
      ok = ParseNumber(value, 1, kIntMax, &opt.sweep);
    } else if (ParseFlag(arg, "jobs", &value)) {
      ok = ParseNumber(value, 0, kIntMax, &opt.jobs);
    } else if (ParseFlag(arg, "run-timeout", &value)) {
      ok = ParseNumber(value, -kInf, kInf, &opt.run_timeout_s);
    } else if (ParseFlag(arg, "trip-run", &value)) {
      ok = ParseNumber(value, 0, kIntMax, &opt.trip_run);
    } else if (ParseFlag(arg, "watchdog", &value)) {
      // Negative is the internal "unset" value, not a setting.
      ok = ParseNumber(value, 0.0, kInf, &opt.watchdog_s);
    } else if (std::strcmp(arg, "--resume") == 0) {
      opt.resume = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", arg);
      return 1;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value in '%s' (try --help)\n", arg);
      return 1;
    }
  }
  if (!opt.export_trace_dir.empty()) {
    // Offline exporter mode: no simulation, just render DIR/flight.tfct into
    // text, a Perfetto-loadable JSON trace and a per-flow text timeline.
    std::string error;
    if (!tfc::ExportFlightTrace(opt.export_trace_dir, &error)) {
      std::fprintf(stderr, "export-trace failed: %s\n", error.c_str());
      return 1;
    }
    const char* dir = opt.export_trace_dir.c_str();
    std::printf("exported %s/flight.tfct -> %s/trace.txt, %s/trace.perfetto.json, "
                "%s/flows.txt\n", dir, dir, dir, dir);
    return 0;
  }
  if (!Lookup(kTopologies, opt.topology, &opt.topology_id)) {
    std::fprintf(stderr, "unknown topology '%s' (star|testbed|leafspine|fattree)\n",
                 opt.topology.c_str());
    return 1;
  }
  if (!Lookup(kWorkloads, opt.workload, &opt.workload_id)) {
    std::fprintf(stderr, "unknown workload '%s' (incast|shuffle|longflows|benchmark)\n",
                 opt.workload.c_str());
    return 1;
  }
  std::vector<tfc::Protocol> protocols;
  if (opt.protocol == "all") {
    protocols = {tfc::Protocol::kTfc, tfc::Protocol::kDctcp, tfc::Protocol::kTcp};
  } else if (opt.protocol == "tfc") {
    protocols = {tfc::Protocol::kTfc};
  } else if (opt.protocol == "dctcp") {
    protocols = {tfc::Protocol::kDctcp};
  } else if (opt.protocol == "tcp") {
    protocols = {tfc::Protocol::kTcp};
  } else {
    std::fprintf(stderr, "unknown protocol '%s' (tfc|dctcp|tcp|all)\n",
                 opt.protocol.c_str());
    return 1;
  }
  // Seconds flags go through Seconds(), so each must fit int64 nanoseconds.
  if (!FitsTimeNs(opt.duration_s * 1e9) || !FitsTimeNs(opt.watchdog_s * 1e9) ||
      !FitsTimeNs(opt.run_timeout_s * 1e9)) {
    std::fprintf(stderr, "--duration/--watchdog/--run-timeout must be finite "
                         "and fit int64 nanoseconds\n");
    return 1;
  }
  if (opt.duration_s <= 0 || opt.run_timeout_s < 0) {
    std::fprintf(stderr, "--duration must be positive, --run-timeout not negative\n");
    return 1;
  }
  if (opt.workload_id == Workload::kShuffle && opt.flows < 2) {
    std::fprintf(stderr, "--workload=shuffle needs --flows >= 2\n");
    return 1;
  }
  // More than one run: a sweep, or one run per protocol.
  const bool many_runs = opt.sweep > 1 || protocols.size() > 1;
  if (many_runs && opt.trace_ring > 0 && opt.telemetry_dir.empty()) {
    std::fprintf(stderr, "--trace-ring with --sweep or --protocol=all needs "
                         "--telemetry-dir (each run dumps flight.tfct into its "
                         "run directory)\n");
    return 1;
  }
  if (opt.sweep == 1 && (opt.resume || opt.run_timeout_s > 0 || opt.trip_run >= 0)) {
    std::fprintf(stderr, "--resume/--run-timeout/--trip-run require --sweep\n");
    return 1;
  }
  if (opt.resume && opt.telemetry_dir.empty()) {
    std::fprintf(stderr, "--resume needs --telemetry-dir "
                         "(done markers live in the run directories)\n");
    return 1;
  }
  // Watchdog default: on (5 sim-seconds) for sweep runs — a silently hung
  // run should fail loudly, not pin a worker slot — off for interactive
  // single runs. --watchdog=0 disables it everywhere.
  if (opt.watchdog_s < 0) {
    opt.watchdog_s = opt.sweep > 1 ? 5.0 : 0.0;
  }

  if (opt.sweep == 1) {
    for (tfc::Protocol p : protocols) {
      // With --protocol=all each protocol gets its own run subdirectory.
      std::string run_dir = opt.telemetry_dir;
      if (!run_dir.empty() && protocols.size() > 1) {
        run_dir += std::string("/") + tfc::ProtocolName(p);
      }
      std::string text;
      Report rep(&text);
      const int rc = RunOne(opt, p, run_dir, rep);
      std::fputs(text.c_str(), stdout);
      if (rc != 0) {
        return rc;
      }
    }
    return 0;
  }

  // Sweep mode: one job per (repetition, protocol), each with its own seed
  // and telemetry subdirectory. The supervisor forks every run into its own
  // child process (crash isolation, per-run timeout, done-marker resume);
  // reports print in submission order.
  const int workers = opt.jobs > 0 ? opt.jobs : tfc::RunSupervisor::DefaultWorkers();

  // Cache-key fingerprint: every input that changes what a run writes.
  // The watchdog, a forced audit trip and TFC_AUDIT schedule daemon ticks,
  // which count in sim.events_executed, and the ring size decides what
  // flight.tfct holds. The key takes the resolved watchdog (the sweep
  // default and --watchdog=5 share a key) and this job's own trip (0 for
  // the runs --trip-run spares, so resuming a force-tripped sweep reuses
  // its clean runs). Doubles are rendered exactly, as manifest.json writes
  // them. --jobs and --run-timeout only change how a run is supervised.
  const auto fingerprint = [](const Options& o, tfc::Protocol p) {
    std::string fp;
    fp += "workload=" + o.workload;
    fp += "|protocol=" + std::string(tfc::ProtocolName(p));
    fp += "|topology=" + o.topology;
    fp += "|senders=" + std::to_string(o.senders);
    fp += "|flows=" + std::to_string(o.flows);
    fp += "|block_kb=" + std::to_string(o.block_kb);
    fp += "|rounds=" + std::to_string(o.rounds);
    fp += "|duration_s=" + tfc::JsonNumber(o.duration_s);
    fp += "|gbps=" + std::to_string(o.gbps);
    fp += "|fault_spec=" + o.fault_spec;
    fp += "|telemetry_interval_us=" + std::to_string(o.telemetry_interval_us);
    fp += "|watchdog_s=" + tfc::JsonNumber(o.watchdog_s);
    fp += "|force_audit_trip_us=" + std::to_string(o.force_audit_trip_us);
    fp += "|trace_ring=" + std::to_string(o.trace_ring);
    fp += "|audit=" + std::to_string(tfc::AuditEnabledByDefault());
    return fp;
  };

  tfc::SupervisorOptions sup;
  sup.workers = workers;
  sup.timeout_s = opt.run_timeout_s;
  sup.resume = opt.resume;
  tfc::RunSupervisor supervisor(sup);
  std::vector<uint64_t> seeds;  // per job, in submission order
  for (int i = 0; i < opt.sweep; ++i) {
    char run_name[32];
    std::snprintf(run_name, sizeof run_name, "run-%04d", i);
    for (tfc::Protocol p : protocols) {
      std::string name = run_name;
      if (protocols.size() > 1) {
        name += std::string("/") + tfc::ProtocolName(p);
      }
      Options job_opt = opt;
      job_opt.seed = opt.seed + static_cast<uint64_t>(i);
      // The forced audit trip targets one repetition (--trip-run=K): the
      // others run clean, which is what makes crash isolation observable.
      if (opt.trip_run >= 0 && i != opt.trip_run) {
        job_opt.force_audit_trip_us = 0;
      }
      std::string run_dir;
      std::string cache_key;
      if (!opt.telemetry_dir.empty()) {
        run_dir = opt.telemetry_dir + "/" + name;
        cache_key = tfc::SweepCacheKey(fingerprint(job_opt, p), job_opt.seed);
      }
      seeds.push_back(job_opt.seed);
      supervisor.Add(std::move(name), run_dir, std::move(cache_key),
                     [job_opt, p, run_dir](std::string* report) {
                       Report rep(report);
                       return RunOne(job_opt, p, run_dir, rep);
                     });
    }
  }
  const std::vector<tfc::SupervisedResult> results = supervisor.Run();

  int exit_code = 0;
  std::vector<std::string> failed_names;
  for (const tfc::SupervisedResult& r : results) {
    std::string annot;
    if (r.status != tfc::RunStatus::kOk) {
      annot = std::string(" [") + tfc::RunStatusName(r.status) + "]";
    }
    std::printf("=== %s (seed %llu, %.3fs)%s ===\n", r.name.c_str(),
                static_cast<unsigned long long>(seeds[static_cast<size_t>(r.index)]),
                r.wall_seconds, annot.c_str());
    std::fputs(r.report.c_str(), stdout);
    if (!r.ok()) {
      std::printf("(exit code %d)\n", r.exit_code);
      const int rc = r.exit_code != 0 ? r.exit_code : 1;
      exit_code = exit_code == 0 ? rc : exit_code;
      failed_names.push_back(r.name);
    }
  }

  // The merged manifest is written even when runs failed — a degraded sweep
  // still ships a queryable sweep.json naming every failure.
  if (!opt.telemetry_dir.empty()) {
    tfc::RunManifest sweep_manifest;
    sweep_manifest.Set("tool", "tfcsim");
    sweep_manifest.Set("workload", opt.workload);
    sweep_manifest.Set("protocol", opt.protocol);
    sweep_manifest.Set("topology", opt.topology);
    sweep_manifest.SetInt("base_seed", static_cast<int64_t>(opt.seed));
    sweep_manifest.SetInt("sweep", opt.sweep);
    sweep_manifest.SetInt("jobs", workers);
    sweep_manifest.SetDouble("run_timeout_s", opt.run_timeout_s);
    sweep_manifest.SetBool("resume", opt.resume);
    if (!opt.fault_spec.empty()) {
      sweep_manifest.Set("fault_spec", opt.fault_spec);
    }
    std::string error;
    if (!tfc::WriteSweepManifest(opt.telemetry_dir + "/sweep.json",
                                 sweep_manifest, results, &error)) {
      std::fprintf(stderr, "sweep manifest failed: %s\n", error.c_str());
      return exit_code != 0 ? exit_code : 1;
    }
    std::printf("sweep: %d runs x %zu protocol(s) on %d worker(s) -> %s/sweep.json\n",
                opt.sweep, protocols.size(), workers, opt.telemetry_dir.c_str());
  }
  if (!failed_names.empty()) {
    std::string names;
    for (const std::string& n : failed_names) {
      names += (names.empty() ? "" : ", ") + n;
    }
    std::fprintf(stderr, "sweep: %zu run(s) failed: %s\n", failed_names.size(),
                 names.c_str());
  }
  return exit_code;
}
