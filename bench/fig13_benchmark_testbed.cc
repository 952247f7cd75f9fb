// Fig. 13 — Flow completion times under realistic benchmark traffic
// (testbed).
//
// Setup (paper Sec. 6.1.2): web-search-style traffic on the 9-host testbed —
// 2 KB query responses in a fan-in pattern plus heavy-tailed background
// flows, generated from the DCTCP paper's distributions (approximated here;
// see DESIGN.md).
//
// Paper result: query-flow FCT under TFC is far below DCTCP and TCP (TCP's
// 99.99th hits the 200 ms RTO); background flows under 10 KB finish faster
// with TFC, larger ones slightly slower (query traffic takes bandwidth).

#include "bench/common.h"
#include "src/workload/scenario.h"

namespace {

void RunOnce(tfc::Protocol protocol, bool quick) {
  using namespace tfc;
  Scenario s;
  s.topology = Topology::kTestbed;
  s.workload = Workload::kBenchmark;
  s.suite.protocol = protocol;
  s.seed = 131;
  s.benchmark.query_interarrival = Milliseconds(2);
  s.benchmark.background_interarrival = Milliseconds(4);
  s.benchmark.stop_time = quick ? Milliseconds(300) : Seconds(3.0);
  s.horizon = s.benchmark.stop_time + Seconds(30.0);  // drain stragglers
  ScenarioRun run(s);
  run.Start();
  run.Run();

  BenchmarkTrafficApp& app = *run.benchmark();
  std::printf("\n--- %s: %llu flows (%llu completed), %llu timeouts ---\n",
              ProtocolName(protocol), static_cast<unsigned long long>(app.flows_started()),
              static_cast<unsigned long long>(app.flows_completed()),
              static_cast<unsigned long long>(app.total_timeouts()));
  bench::PrintTailRow("query", app.fct().query());
  std::printf("background flows, 99.9th percentile FCT by size bin:\n");
  for (int bin = 0; bin < kNumSizeBins; ++bin) {
    SampleSet& fcts = app.fct().background(bin);
    if (fcts.empty()) {
      std::printf("  %-10s (no samples)\n", kSizeBinLabels[static_cast<size_t>(bin)]);
    } else {
      std::printf("  %-10s n=%-5zu mean=%10.1fus  99.9th=%12.1fus\n",
                  kSizeBinLabels[static_cast<size_t>(bin)], fcts.count(), fcts.Mean(),
                  fcts.Percentile(99.9));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tfc;
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header("Fig. 13 - FCT under benchmark (web-search) traffic, testbed",
                "query FCT: TFC << DCTCP << TCP (tails hit the 200 ms RTO); "
                "TFC slightly slower only for large background flows");
  for (Protocol p : bench::AllProtocols()) {
    RunOnce(p, quick);
  }
  return 0;
}
