// Fig. 12 — Incast on the 1 Gbps testbed: goodput and queue vs #senders.
//
// Setup (paper Sec. 6.1.2): a receiver requests 256 KB blocks from N
// synchronized senders over persistent connections, barrier between rounds.
// 256 KB per-port buffers.
//
// Paper result: TFC sustains 800-900 Mbps and near-zero queue up to 100
// senders; DCTCP collapses beyond ~50 senders (queue near the buffer
// limit); TCP collapses beyond ~10.

#include <string>
#include <vector>

#include "bench/common.h"
#include "src/sim/telemetry.h"
#include "src/workload/scenario.h"

namespace {

struct Row {
  double goodput_mbps;
  double avg_queue_kb;
  double max_queue_kb;
  uint64_t timeouts;
  uint64_t drops;
};

Row RunOnce(tfc::Protocol protocol, int senders, bool quick) {
  using namespace tfc;
  Scenario s;
  s.suite.protocol = protocol;
  s.seed = 121;
  s.senders = senders;
  s.incast.block_bytes = 256 * 1024;
  s.incast.rounds = quick ? 3 : 10;
  ScenarioRun run(s);

  Port* bottleneck = run.bottleneck();
  const std::string queue_name = bottleneck->metric_prefix() + ".queue_bytes";
  TimeSeriesRecorder recorder(&run.net().scheduler(), &run.net().metrics());
  recorder.Watch(queue_name);
  recorder.Start(Microseconds(100), /*first_delay=*/Microseconds(100));
  run.Start();
  // Drain-mode Run(): the recorder's ticks are daemon events, so the run
  // (and the queue average) ends when the last round does.
  run.Run();
  RunningStats queue;
  for (const TimeSeriesRecorder::Sample& sample : recorder.Series(queue_name)) {
    queue.Add(sample.v);
  }

  const IncastApp& app = *run.incast();
  return Row{app.goodput_bps() / 1e6, queue.mean() / 1024.0,
             static_cast<double>(bottleneck->max_queue_bytes()) / 1024.0,
             app.total_timeouts(), bottleneck->drops()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tfc;
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header("Fig. 12 - testbed incast: goodput & queue vs number of senders",
                "TFC 800-900 Mbps flat to 100 senders, ~no queue; DCTCP collapses "
                ">50; TCP >10");

  std::vector<int> counts = quick ? std::vector<int>{5, 20, 50}
                                  : std::vector<int>{5, 10, 20, 30, 40, 50, 60, 80, 100};
  std::printf("%-8s %8s %14s %14s %14s %10s %10s\n", "proto", "senders",
              "goodput(Mbps)", "avg_queue(KB)", "max_queue(KB)", "timeouts", "drops");
  for (Protocol p : bench::AllProtocols()) {
    for (int n : counts) {
      Row r = RunOnce(p, n, quick);
      std::printf("%-8s %8d %14.1f %14.1f %14.1f %10llu %10llu\n", ProtocolName(p), n,
                  r.goodput_mbps, r.avg_queue_kb, r.max_queue_kb,
                  static_cast<unsigned long long>(r.timeouts),
                  static_cast<unsigned long long>(r.drops));
    }
  }
  std::printf("\n(each row: 256 KB blocks, barrier-synchronized rounds; goodput is\n"
              " application-level. Compare the collapse points across protocols.)\n");
  return 0;
}
