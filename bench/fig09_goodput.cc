// Fig. 9 — High goodput and fairness, 4 staggered long flows.
//
// Same scenario as Fig. 8; per-flow goodput sampled in 20 ms windows —
// since PR 3 via the telemetry recorder: each flow's cumulative
// "flow.<id>.delivered_bytes" gauge is recorded on the window cadence and
// the per-window rates are differenced from the series afterwards, which
// is numerically identical to the old manual RunUntil-stepping loop.
//
// Paper result: all three protocols fill the bottleneck, but TFC shares it
// fairly even at small timescales while TCP's per-flow goodput oscillates
// wildly; DCTCP sits in between.

#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/sim/stats.h"
#include "src/sim/telemetry.h"
#include "src/workload/scenario.h"

namespace {

void RunOnce(tfc::Protocol protocol, bool quick) {
  using namespace tfc;
  Scenario s;
  s.topology = Topology::kTestbed;
  s.suite.protocol = protocol;
  s.seed = 91;
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

  // Record per-flow cumulative delivered bytes on the window cadence during
  // the 4-flow phase; rates and Jain fairness fall out of the differences.
  const TimeNs window = quick ? Microseconds(500) : Milliseconds(20);
  const int windows = quick ? 40 : 120;
  net.scheduler().RunUntil(stagger * 3 + stagger / 4);  // all 4 running

  TimeSeriesRecorder recorder(&net.scheduler(), &net.metrics());
  std::vector<std::string> series_names;
  for (const auto& flow : flows) {
    series_names.push_back("flow." + std::to_string(flow->sender().flow_id()) +
                           ".delivered_bytes");
    recorder.Watch(series_names.back());
  }
  // First tick at now: the baseline sample the manual loop took before
  // stepping. windows more ticks => windows diffs per flow.
  recorder.Start(window, /*first_delay=*/0);
  net.scheduler().RunUntil(net.scheduler().now() + window * windows);
  recorder.Stop();

  std::vector<std::vector<TimeSeriesRecorder::Sample>> series;
  for (const std::string& name : series_names) {
    series.push_back(recorder.Series(name));
  }

  RunningStats fairness;
  RunningStats total_goodput;
  std::vector<RunningStats> per_flow(4);
  for (int w = 0; w < windows; ++w) {
    std::vector<double> rates;
    double total = 0;
    for (size_t i = 0; i < series.size(); ++i) {
      const size_t k = static_cast<size_t>(w);
      if (k + 1 >= series[i].size()) {
        continue;  // flow metric vanished mid-run (cannot happen here)
      }
      const double bps =
          (series[i][k + 1].v - series[i][k].v) * 8.0 / ToSeconds(window);
      rates.push_back(bps);
      per_flow[i].Add(bps);
      total += bps;
    }
    fairness.Add(JainFairness(rates));
    total_goodput.Add(total);
  }

  std::printf("%-8s total=%7.1f Mbps  per-flow mean (Mbps): %6.1f %6.1f %6.1f %6.1f  "
              "Jain/window: mean=%.4f min=%.4f\n",
              ProtocolName(protocol), total_goodput.mean() / 1e6,
              per_flow[0].mean() / 1e6, per_flow[1].mean() / 1e6,
              per_flow[2].mean() / 1e6, per_flow[3].mean() / 1e6, fairness.mean(),
              fairness.min());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tfc;
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header(
      "Fig. 9 - goodput & fairness, 4 staggered long flows (20 ms windows)",
      "all protocols fill the link; TFC is fair per-20ms-window, TCP unstable");
  for (Protocol p : bench::AllProtocols()) {
    RunOnce(p, quick);
  }
  std::printf("\n(Jain index of 1.0 means equal 20 ms-window shares; TCP's\n"
              " minimum shows its small-timescale unfairness.)\n");
  return 0;
}
