// Fig. 10 — Convergence rate when a third flow joins.
//
// Same staggered-flows scenario zoomed at the third flow's start: how long
// until the newcomer holds its fair share of goodput?
//
// Paper result: TFC converges in about one round (sub-millisecond); DCTCP
// needs ~20 ms of window evolution; TCP doesn't converge within the window.

#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/workload/scenario.h"

namespace {

// Returns the time (us) after the third flow starts until its goodput stays
// within 25% of the fair share for 3 consecutive 1 ms windows (-1 = never).
double RunOnce(tfc::Protocol protocol, bool quick) {
  using namespace tfc;
  Scenario s;
  s.topology = Topology::kTestbed;
  s.suite.protocol = protocol;
  s.seed = 101;
  ScenarioRun run(s);
  Network& net = run.net();
  const std::vector<Host*>& hosts = run.hosts();

  // Two incumbents, warmed up.
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  Host* sources[] = {hosts[0], hosts[1], hosts[0]};
  for (int i = 0; i < 2; ++i) {
    flows.push_back(std::make_unique<PersistentFlow>(
        s.suite.MakeSender(&net, sources[i], hosts[2])));
    flows.back()->Start();
  }
  const TimeNs warmup = quick ? Milliseconds(50) : Seconds(1.0);
  net.scheduler().RunUntil(warmup);

  // The newcomer.
  flows.push_back(std::make_unique<PersistentFlow>(
      s.suite.MakeSender(&net, sources[2], hosts[2])));
  flows.back()->Start();
  const TimeNs t0 = net.scheduler().now();

  const double fair_share = 1e9 * 1460.0 / 1538.0 / 3.0;  // payload bps / 3
  const TimeNs window = Milliseconds(1);
  uint64_t last = flows[2]->delivered_bytes();
  int in_band = 0;
  for (int w = 0; w < 200; ++w) {
    net.scheduler().RunUntil(net.scheduler().now() + window);
    const uint64_t d = flows[2]->delivered_bytes();
    const double bps = static_cast<double>(d - last) * 8.0 / ToSeconds(window);
    last = d;
    if (bps > 0.75 * fair_share && bps < 1.33 * fair_share) {
      if (++in_band == 3) {
        return ToMicroseconds(net.scheduler().now() - t0 - 2 * window);
      }
    } else {
      in_band = 0;
    }
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tfc;
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header("Fig. 10 - convergence time of a newly arriving flow",
                "TFC: one round (~sub-ms); DCTCP: ~20 ms; TCP: does not settle");
  std::printf("%-8s %s\n", "proto", "time to fair share (1 ms windows)");
  for (Protocol p : bench::AllProtocols()) {
    const double us = RunOnce(p, quick);
    if (us < 0) {
      std::printf("%-8s did not converge within 200 ms\n", ProtocolName(p));
    } else {
      std::printf("%-8s %.1f ms\n", ProtocolName(p), us / 1000.0);
    }
  }
  std::printf("\n(convergence = goodput within 25%% of fair share for 3 consecutive\n"
              " 1 ms windows, measured from the flow's Start().)\n");
  return 0;
}
