// Fig. 8 — Queue length at the bottleneck under TFC / DCTCP / TCP.
//
// Setup (paper Sec. 6.1.2): H1 and H2 each start two long-lived flows to H3,
// one flow every 3 seconds. The egress queue toward H3 is sampled through
// the telemetry recorder (src/sim/telemetry.h): the bench watches the
// bottleneck port's registered "port.<node>.p<n>.queue_bytes" gauge, so the
// numbers in EXPERIMENTS.md reproduce from the recorder's series.
//
// Paper result: TFC keeps near-zero queue (spikes <= ~9 KB); DCTCP holds
// ~30 KB around its marking threshold; TCP fills the whole 256 KB buffer.

#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/sim/telemetry.h"
#include "src/workload/scenario.h"

namespace {

struct Result {
  tfc::RunningStats queue;
  tfc::Bytes max_queue = 0;
  uint64_t drops = 0;
  size_t samples = 0;
};

Result RunOnce(tfc::Protocol protocol, bool quick) {
  using namespace tfc;
  Scenario s;
  s.topology = Topology::kTestbed;
  s.suite.protocol = protocol;
  s.seed = 81;
  ScenarioRun run(s);
  Network& net = run.net();
  const std::vector<Host*>& hosts = run.hosts();

  const TimeNs stagger = quick ? Milliseconds(100) : Seconds(3.0);
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  Host* sources[] = {hosts[0], hosts[1], hosts[0], hosts[1]};
  for (int i = 0; i < 4; ++i) {
    flows.push_back(std::make_unique<PersistentFlow>(
        s.suite.MakeSender(&net, sources[i], hosts[2])));
    PersistentFlow* flow = flows.back().get();
    net.scheduler().ScheduleAt(stagger * i + 1, [flow] { flow->Start(); });
  }

  Port* bottleneck = hosts[2]->ports()[0]->peer_port();  // NF1 -> H3
  const std::string series_name = bottleneck->metric_prefix() + ".queue_bytes";
  TimeSeriesRecorder recorder(&net.scheduler(), &net.metrics());
  recorder.Watch(series_name);
  recorder.Start(quick ? Microseconds(200) : Milliseconds(2), /*first_delay=*/0);
  net.scheduler().RunUntil(stagger * 4);
  recorder.Stop();

  Result r;
  for (const TimeSeriesRecorder::Sample& sample : recorder.Series(series_name)) {
    r.queue.Add(sample.v);
  }
  r.samples = static_cast<size_t>(r.queue.count());
  r.max_queue = bottleneck->max_queue_bytes();
  r.drops = bottleneck->drops();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tfc;
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header("Fig. 8 - bottleneck queue length, 4 staggered long flows",
                "TFC ~0 (max ~9KB), DCTCP ~30KB, TCP fills the 256KB buffer");

  std::printf("%-8s %14s %14s %14s %10s\n", "proto", "mean_queue(KB)",
              "p-max_queue(KB)", "sampled_max", "drops");
  for (Protocol p : bench::AllProtocols()) {
    Result r = RunOnce(p, quick);
    std::printf("%-8s %14.1f %14.1f %14.1f %10llu\n", ProtocolName(p),
                r.queue.mean() / 1024.0, static_cast<double>(r.max_queue) / 1024.0,
                r.queue.max() / 1024.0, static_cast<unsigned long long>(r.drops));
  }
  std::printf("\n(mean and max over the whole run, including flow arrivals;\n"
              " TFC stays within a few packets, TCP saturates the buffer.)\n");
  return 0;
}
