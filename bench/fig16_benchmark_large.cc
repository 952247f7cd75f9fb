// Fig. 16 — Large-scale benchmark traffic (the paper's ns-2 experiment).
//
// Setup (paper Sec. 6.2.2): 18 racks x 20 servers, 1 Gbps downlinks, one
// 10 Gbps uplink per rack, 20 us per-link latency (160 us 4-hop RTT).
// Web-search benchmark traffic; each query makes every other server send a
// 2 KB response to one aggregator (the 359-to-1 fan-in the paper describes).
//
// Paper result: mean query FCT — DCTCP ~30x slower than TFC, TCP ~8x slower
// than DCTCP; TFC's tails stay small while DCTCP/TCP hit repeated timeouts.
// Background flows >1 KB finish slightly slower under TFC.

#include "bench/common.h"
#include "src/workload/scenario.h"

namespace {

void RunOnce(tfc::Protocol protocol, bool quick) {
  using namespace tfc;
  Scenario s;
  s.topology = Topology::kLeafSpine;
  s.workload = Workload::kBenchmark;
  s.suite.protocol = protocol;
  s.seed = 161;
  s.switch_buffer_bytes = 512 * 1024;
  s.racks = quick ? 6 : 18;
  s.hosts_per_rack = quick ? 5 : 20;
  // Full-fan-in queries (all other servers respond to one aggregator).
  s.benchmark.query_interarrival = quick ? Milliseconds(20) : Milliseconds(25);
  s.benchmark.query_fanin = 0;
  s.benchmark.background_interarrival = quick ? Milliseconds(2) : Microseconds(400);
  s.benchmark.stop_time = quick ? Milliseconds(200) : Milliseconds(800);
  s.horizon = s.benchmark.stop_time + Seconds(40.0);  // drain stragglers
  ScenarioRun run(s);
  run.Start();
  run.Run();

  BenchmarkTrafficApp& app = *run.benchmark();
  std::printf("\n--- %s: %llu flows (%llu completed), %llu timeouts ---\n",
              ProtocolName(protocol), static_cast<unsigned long long>(app.flows_started()),
              static_cast<unsigned long long>(app.flows_completed()),
              static_cast<unsigned long long>(app.total_timeouts()));
  // The paper reports these in milliseconds at this scale.
  bench::PrintTailRow("query", app.fct().query(), 1000.0, "ms");
  std::printf("background flows, mean FCT by size bin:\n");
  for (int bin = 0; bin < kNumSizeBins; ++bin) {
    SampleSet& fcts = app.fct().background(bin);
    if (fcts.empty()) {
      std::printf("  %-10s (no samples)\n", kSizeBinLabels[static_cast<size_t>(bin)]);
    } else {
      std::printf("  %-10s n=%-5zu mean=%10.2fms  99.9th=%12.2fms\n",
                  kSizeBinLabels[static_cast<size_t>(bin)], fcts.count(),
                  fcts.Mean() / 1000.0, fcts.Percentile(99.9) / 1000.0);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tfc;
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header("Fig. 16 - FCT under benchmark traffic, 18 racks x 20 servers",
                "query FCT: TFC ~30x faster than DCTCP, DCTCP ~8x faster than TCP; "
                "tails: TFC small, others timeout-bound");
  for (Protocol p : bench::AllProtocols()) {
    RunOnce(p, quick);
  }
  std::printf("\n(359-way 2 KB fan-in per query; background from the web-search size\n"
              " distribution. Absolute numbers differ from the paper's testbed, the\n"
              " protocol ordering and tail structure are the reproduced result.)\n");
  return 0;
}
