// Fig. 15 — Large-scale incast at 10 Gbps (the paper's ns-2 experiment).
//
// Setup (paper Sec. 6.2.1): 10 Gbps links, 512 KB switch buffers,
// synchronized blocks of 64/128/256 KB, up to 400 senders, 2 s runs.
//
// Paper result: TFC holds ~90% link utilization for any sender count and
// suffers ~zero timeouts; TCP collapses beyond ~50 senders and reaches
// ~0.8 timeouts per block at 300+ senders.

#include <vector>

#include "bench/common.h"
#include "src/workload/scenario.h"

namespace {

struct Row {
  double throughput_gbps;
  double max_to_per_block;
  uint64_t drops;
  int rounds;
};

Row RunOnce(tfc::Protocol protocol, int senders, uint64_t block_kb,
            tfc::TimeNs duration) {
  using namespace tfc;
  Scenario s;
  s.suite.protocol = protocol;
  s.seed = 151;
  s.link_bps = 10 * kGbps;
  s.switch_buffer_bytes = 512 * 1024;
  s.senders = senders;
  s.incast.block_bytes = block_kb * 1024;
  s.incast.rounds = 1 << 20;  // effectively unbounded; the duration decides
  s.horizon = duration;
  ScenarioRun run(s);
  run.Start();
  run.Run();

  const IncastApp& app = *run.incast();
  return Row{app.goodput_bps() / 1e9, app.max_timeouts_per_block(),
             run.bottleneck()->drops(), app.rounds_completed()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tfc;
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header("Fig. 15 - large-scale incast at 10 Gbps (block sizes 64/128/256 KB)",
                "TFC ~90% utilization flat to 400 senders with ~0 timeouts; TCP "
                "collapses >50, ~0.8 TO/block at 300+");

  const TimeNs duration = quick ? Milliseconds(300) : Seconds(2.0);
  std::vector<int> counts =
      quick ? std::vector<int>{50, 400} : std::vector<int>{50, 100, 200, 300, 400};
  std::vector<uint64_t> blocks =
      quick ? std::vector<uint64_t>{256} : std::vector<uint64_t>{64, 128, 256};

  std::printf("%-10s %8s %9s %18s %14s %10s %8s\n", "series", "senders", "block",
              "throughput(Gbps)", "maxTO/block", "drops", "rounds");
  for (Protocol p : {Protocol::kTfc, Protocol::kTcp}) {
    for (uint64_t block : blocks) {
      for (int n : counts) {
        Row r = RunOnce(p, n, block, duration);
        std::printf("%-4s-%-3lluKB %8d %8lluK %18.2f %14.2f %10llu %8d\n",
                    ProtocolName(p), static_cast<unsigned long long>(block), n,
                    static_cast<unsigned long long>(block), r.throughput_gbps,
                    r.max_to_per_block, static_cast<unsigned long long>(r.drops),
                    r.rounds);
      }
    }
  }
  std::printf("\n(throughput is application goodput over the run; maxTO/block is the\n"
              " worst per-flow average timeouts per block — the paper's Fig. 15b.)\n");
  return 0;
}
