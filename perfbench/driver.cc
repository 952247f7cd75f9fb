// Benchmark driver: builds one workload through the public API of src/,
// runs it once in this process and prints one JSON line of measurements.
// run.py starts one process per repetition and aggregates the lines.
//
//   perfbench --workload=incast400_tfc --seed=1 [--scale=tiny]
//             [--setup-only] [--traced] [--run-dir=DIR]
//
// Nothing here reaches inside a layer: each layer is timed by a span around
// its public calls and read through its public counters. --traced adds the
// per-layer view: the Profiler's per-site wall time, and the run is driven
// in 1 ms slices so the heap depth and live flows can be sampled between
// them.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/telemetry.h"
#include "src/topo/topologies.h"
#include "src/workload/benchmark_traffic.h"
#include "src/workload/incast.h"

namespace {

using namespace tfc;
using Clock = std::chrono::steady_clock;

// Every scenario parameter is pinned here instead of taken from a library
// default, so a changed default cannot silently change what is measured.
constexpr Bytes kSwitchBuffer = 512 * 1024;
constexpr Bytes kHostBuffer = 8 * 1024 * 1024;
constexpr Bytes kIncastBlock = 256 * 1024;
constexpr Bytes kQueryResponse = 2 * 1024;
constexpr TimeNs kSlice = Milliseconds(1);

struct Workload {
  Protocol protocol = Protocol::kTfc;
  // Star incast when senders > 0: senders -> one receiver at 10 Gbps, each
  // round a barrier (closed loop).
  int senders = 0;
  int rounds = 0;
  // Leaf-spine web search when racks > 0: open-loop Poisson arrivals until
  // `arrivals_until`, then the network drains.
  int racks = 0;
  int hosts_per_rack = 0;
  TimeNs query_interarrival = 0;
  TimeNs background_interarrival = 0;
  TimeNs arrivals_until = 0;
  // Records tfcsim's default watch set every 1 ms and exports a run dir.
  bool telemetry = false;
};

bool LookupWorkload(const std::string& name, bool tiny, Workload* w) {
  if (name == "incast400_tfc") {
    w->senders = tiny ? 16 : 400;
    w->rounds = tiny ? 2 : 10;
    return true;
  }
  if (name == "incast100_telemetry") {
    w->senders = tiny ? 8 : 100;
    w->rounds = tiny ? 3 : 40;
    w->telemetry = true;
    return true;
  }
  if (name == "websearch360_dctcp") {
    w->protocol = Protocol::kDctcp;
    w->racks = tiny ? 3 : 18;
    w->hosts_per_rack = tiny ? 4 : 20;
    w->query_interarrival = Milliseconds(tiny ? 5 : 25);
    w->background_interarrival = Microseconds(400);
    w->arrivals_until = Milliseconds(tiny ? 20 : 800);
    return true;
  }
  return false;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool tiny = false;
  bool setup_only = false;
  bool traced = false;
  std::string run_dir;
};

struct Span {
  const char* name;
  const char* parent;  // "" for a top-level span
  double start_s;
  double end_s;
};

// Spans in memory, written out with the result line.
class SpanLog {
 public:
  template <typename F>
  void Record(const char* name, const char* parent, F&& body) {
    const double start = Now();
    body();
    spans_.push_back(Span{name, parent, start, Now()});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

using Values = std::map<std::string, double>;

struct Result {
  SpanLog log;
  Values layer;    // per-layer counters and profiler sites
  Values outcome;  // simulated statistics, checked by run.py
};

double DirectoryBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<double>(entry.file_size(ec));
    }
  }
  return total;
}

bool RunOnce(const std::string& name, const Workload& w, const Options& opt,
             Result* result) {
  SpanLog& log = result->log;
  Values& layer = result->layer;
  Values& outcome = result->outcome;
  ProtocolSuite suite;
  suite.protocol = w.protocol;

  // Declared in destruction-safe order; the teardown span resets them in
  // reverse so recorder and apps unregister before the network goes.
  std::unique_ptr<Network> net;
  std::vector<Host*> hosts;
  std::unique_ptr<TimeSeriesRecorder> recorder;
  std::unique_ptr<IncastApp> incast;
  std::unique_ptr<BenchmarkTrafficApp> search;

  log.Record("setup", "", [&] {
    log.Record("setup.topo", "setup", [&] {
      net = std::make_unique<Network>(opt.seed);
      LinkOptions link;
      link.switch_buffer_bytes = kSwitchBuffer;
      link.host_buffer_bytes = kHostBuffer;
      if (w.senders > 0) {
        link.ecn_threshold_bytes = suite.EcnThresholdBytes(10 * kGbps);
        hosts = BuildStar(*net, w.senders + 1, link, 10 * kGbps, Microseconds(5)).hosts;
      } else {
        link.ecn_threshold_bytes = suite.EcnThresholdBytes(kGbps);
        hosts = BuildLeafSpine(*net, w.racks, w.hosts_per_rack, link, kGbps,
                               10 * kGbps, Microseconds(20))
                    .all_hosts;
      }
      for (Host* h : hosts) {
        h->set_processing_delay(0, 0);
      }
    });
    net->profiler().set_enabled(opt.traced);
    log.Record("setup.switch_logic", "setup", [&] { suite.InstallSwitchLogic(*net); });
    if (w.telemetry) {
      log.Record("setup.telemetry", "setup", [&] {
        recorder = std::make_unique<TimeSeriesRecorder>(&net->scheduler(), &net->metrics());
        for (const char* prefix : {"port.", "tfc.", "flow.", "sim.", "pool.", "incast."}) {
          recorder->WatchPrefix(prefix);
        }
        recorder->Start(Milliseconds(1));
      });
    }
    log.Record("setup.workload", "setup", [&] {
      if (w.senders > 0) {
        IncastConfig cfg;
        cfg.block_bytes = kIncastBlock;
        cfg.rounds = w.rounds;
        cfg.request_delay = Microseconds(30);
        std::vector<Host*> senders(hosts.begin() + 1, hosts.end());
        incast = std::make_unique<IncastApp>(net.get(), suite, hosts[0], senders, cfg);
        incast->Start();
      } else {
        BenchmarkTrafficConfig cfg;
        cfg.query_interarrival = w.query_interarrival;
        cfg.query_fanin = 0;  // every other server answers the aggregator
        cfg.query_response_bytes = kQueryResponse;
        cfg.background_interarrival = w.background_interarrival;
        cfg.stop_time = w.arrivals_until;
        search = std::make_unique<BenchmarkTrafficApp>(net.get(), suite, hosts, cfg);
        search->Start();
      }
    });
  });

  const auto live_flows = [&]() -> uint64_t {
    if (search != nullptr) {
      return search->flows_started() - search->flows_completed();
    }
    uint64_t live = 0;
    for (const auto& f : incast->flows()) {
      live += f->stats().complete() ? 0 : 1;
    }
    return live;
  };

  Scheduler& sched = net->scheduler();
  uint64_t slices = 0;
  size_t heap_peak = sched.pending_total();
  uint64_t live_peak = live_flows();
  if (!opt.setup_only) {
    log.Record("run", "", [&] {
      if (!opt.traced) {
        sched.Run();
        return;
      }
      // Each slice ends at a daemon event that stops Run(); drain-mode Run()
      // still returns once only daemons are left, so slicing neither extends
      // the run nor changes the order of any other event.
      for (;;) {
        bool boundary = false;
        const Scheduler::EventId id = sched.ScheduleDaemonAfter(kSlice, [&sched, &boundary] {
          boundary = true;
          sched.Stop();
        });
        sched.Run();
        heap_peak = std::max(heap_peak, sched.pending_total());
        live_peak = std::max(live_peak, live_flows());
        if (!boundary) {
          sched.CancelDaemon(id);
          break;
        }
        ++slices;
      }
    });
  }

  // --- counters, read between run and export (outside every span) ---
  double hops = 0;
  double drops = 0;
  double ecn_marks = 0;
  double ports = 0;
  double tfc_slots = 0;
  double tfc_delayed = 0;
  Bytes max_queue = 0;
  for (const auto& node : net->nodes()) {
    for (const auto& port : node->ports()) {
      ports += 1;
      hops += static_cast<double>(port->tx_packets());
      drops += static_cast<double>(port->drops());
      ecn_marks += static_cast<double>(port->ecn_marks());
      if (!node->is_host()) {
        max_queue = std::max(max_queue, port->max_queue_bytes());
      }
      if (const TfcPortAgent* agent = TfcPortAgent::FromPort(port.get())) {
        tfc_slots += static_cast<double>(agent->slots_completed());
        tfc_delayed += static_cast<double>(agent->delayed_acks());
      }
    }
  }
  const double events = static_cast<double>(sched.executed() - slices);
  outcome["hops"] = hops;
  outcome["drops"] = drops;
  outcome["ecn_marks"] = ecn_marks;
  outcome["max_queue_bytes"] = static_cast<double>(max_queue);

  layer["sim.events"] = events;
  layer["sim.events_per_hop"] = hops > 0 ? events / hops : 0;
  layer["sim.heap_peak"] = static_cast<double>(heap_peak);
  layer["net.hops"] = hops;
  layer["net.drops"] = drops;
  layer["net.ecn_marks"] = ecn_marks;
  layer["net.max_queue_kb"] = static_cast<double>(max_queue) / 1024.0;
  layer["net.pool_hits"] = static_cast<double>(net->packet_pool().hits());
  layer["net.pool_misses"] = static_cast<double>(net->packet_pool().misses());
  layer["net.pool_high_water"] = static_cast<double>(net->packet_pool().high_water());
  layer["topo.nodes"] = net->num_nodes();
  layer["topo.ports"] = ports;
  layer["tfc.slots"] = tfc_slots;
  layer["tfc.delayed_acks"] = tfc_delayed;
  layer["workload.live_flows_peak"] = static_cast<double>(live_peak);

  // Profiler sites: hits always count; wall time only under --traced.
  const std::map<std::string, std::string> sites = {
      {"port.serialize", "net.serialize"},
      {"tfc.release_parked", "tfc.release"},
      {"transport.rto", "transport.rto"},
  };
  for (const auto& [site, metric] : sites) {
    layer[metric + "_hits"] = 0;
    layer[metric + "_wall_s"] = 0;
  }
  double site_wall_s = 0;
  net->profiler().ForEachSite([&](const ProfileSite& s) {
    const double wall_s = static_cast<double>(s.wall_ns()) * 1e-9;
    site_wall_s += wall_s;
    const auto it = sites.find(s.name());
    if (it != sites.end()) {
      layer[it->second + "_hits"] = static_cast<double>(s.hits());
      layer[it->second + "_wall_s"] = wall_s;
    }
  });
  layer["profile.sites_wall_s"] = site_wall_s;

  double flows_started = 0;
  double flows_completed = 0;
  double probes = 0;
  double probe_retries = 0;
  if (incast != nullptr) {
    double delivered = 0;
    for (const auto& f : incast->flows()) {
      flows_started += 1;
      flows_completed += f->stats().complete() ? 1 : 0;
      delivered += static_cast<double>(f->delivered_bytes());
      if (const auto* tfc_sender = dynamic_cast<const TfcSender*>(f.get())) {
        probes += static_cast<double>(tfc_sender->probes_sent());
        probe_retries += static_cast<double>(tfc_sender->probe_retries());
      }
    }
    SampleSet fct = incast->MergedBlockFcts();
    outcome["attempted"] = static_cast<double>(w.senders) * w.rounds;
    outcome["completed"] = static_cast<double>(fct.count());
    outcome["rounds_completed"] = incast->rounds_completed();
    outcome["requested_bytes"] = static_cast<double>(w.senders) * w.rounds *
                                 static_cast<double>(kIncastBlock);
    outcome["delivered_bytes"] = delivered;
    outcome["goodput_bps"] = incast->goodput_bps();
    outcome["timeouts"] = static_cast<double>(incast->total_timeouts());
    outcome["fct_p50_us"] = fct.Percentile(50) * 1e6;
    outcome["fct_p99_us"] = fct.Percentile(99) * 1e6;
  } else {
    flows_started = static_cast<double>(search->flows_started());
    flows_completed = static_cast<double>(search->flows_completed());
    FctRecorder& fct = search->fct();
    double background = 0;
    for (int bin = 0; bin < kNumSizeBins; ++bin) {
      background += static_cast<double>(fct.background(bin).count());
    }
    outcome["attempted"] = flows_started;
    outcome["completed"] = flows_completed;
    outcome["query_flows"] = static_cast<double>(fct.query().count());
    outcome["background_flows"] = background;
    outcome["timeouts"] = static_cast<double>(search->total_timeouts());
    outcome["fct_p50_us"] = fct.query().Percentile(50);
    outcome["fct_p99_us"] = fct.query().Percentile(99);
  }
  outcome["flows_started"] = flows_started;
  outcome["flows_completed"] = flows_completed;
  layer["transport.flows_started"] = flows_started;
  layer["transport.flows_completed"] = flows_completed;
  layer["transport.timeouts"] = outcome["timeouts"];
  layer["tfc.probes"] = probes;
  layer["tfc.probe_retries"] = probe_retries;

  bool exported = true;
  std::string error;
  if (recorder != nullptr && !opt.setup_only) {
    std::error_code ec;
    std::filesystem::remove_all(opt.run_dir, ec);
    log.Record("export", "", [&] {
      recorder->Stop();
      RunManifest manifest;
      manifest.Set("tool", "perfbench");
      manifest.Set("workload", name);
      manifest.SetInt("seed", static_cast<int64_t>(opt.seed));
      exported = WriteRunDirectory(opt.run_dir, manifest, net->metrics(), recorder.get(),
                                   &net->profiler(), &error);
    });
    layer["telemetry.series"] = static_cast<double>(recorder->series_count());
    layer["telemetry.ticks"] = static_cast<double>(recorder->ticks());
    layer["telemetry.samples"] = static_cast<double>(recorder->total_samples());
    layer["telemetry.plan_rebuilds"] = static_cast<double>(recorder->plan_rebuilds());
  }

  log.Record("teardown", "", [&] {
    recorder.reset();
    incast.reset();
    search.reset();
    net.reset();
  });

  if (!opt.run_dir.empty() && std::filesystem::exists(opt.run_dir)) {
    layer["run.artifact_mb"] = DirectoryBytes(opt.run_dir) / 1e6;
    std::error_code ec;
    layer["telemetry.tfcb_mb"] =
        static_cast<double>(std::filesystem::file_size(opt.run_dir + "/metrics.tfcb", ec)) /
        1e6;
    std::filesystem::remove_all(opt.run_dir, ec);
  }
  if (!exported) {
    std::fprintf(stderr, "perfbench: export failed: %s\n", error.c_str());
  }
  return exported;
}

void PrintValues(const char* key, const Values& values) {
  std::printf("\"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, v] : values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), v);
    sep = ", ";
  }
  std::printf("}");
}

void PrintResult(const Result& r) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("{\"peak_rss_mb\": %.17g, \"spans\": [",
              static_cast<double>(usage.ru_maxrss) / 1024.0);
  const char* sep = "";
  for (const Span& s : r.log.spans()) {
    std::printf("%s{\"name\": \"%s\", \"parent\": \"%s\", \"start_s\": %.17g, \"end_s\": %.17g}",
                sep, s.name, s.parent, s.start_s, s.end_s);
    sep = ", ";
  }
  std::printf("], ");
  PrintValues("layer", r.layer);
  std::printf(", ");
  PrintValues("outcome", r.outcome);
  std::printf("}\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseFlag(arg, "--workload", &opt.workload) ||
        ParseFlag(arg, "--run-dir", &opt.run_dir)) {
      continue;
    } else if (ParseFlag(arg, "--seed", &value)) {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--scale", &value) && (value == "tiny" || value == "full")) {
      opt.tiny = value == "tiny";
    } else if (std::strcmp(arg, "--setup-only") == 0) {
      opt.setup_only = true;
    } else if (std::strcmp(arg, "--traced") == 0) {
      opt.traced = true;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", arg);
      return 2;
    }
  }
  Workload w;
  if (!LookupWorkload(opt.workload, opt.tiny, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (w.telemetry && opt.run_dir.empty()) {
    std::fprintf(stderr, "perfbench: %s needs --run-dir\n", opt.workload.c_str());
    return 2;
  }
  Result result;
  const bool ok = RunOnce(opt.workload, w, opt, &result);
  PrintResult(result);
  return ok ? 0 : 1;
}
