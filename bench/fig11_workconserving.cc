// Fig. 11 — Work conservation across two bottlenecks.
//
// Setup (paper Fig. 5): host 1 sends n1 = 8 flows to host 4 and n2 = 2
// flows to host 3; host 2 sends n3 = 2 flows to host 3. S1's uplink and
// S2's downlink are both bottlenecks; S1 allocates the n2 flows less than
// S2 would, so without token adjustment S2's downlink would idle.
//
// Paper result: both bottlenecks sustain >900 Mbps goodput and the queue
// varies around ~2 KB (about one packet) — TFC is work-conserving.

#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/sim/telemetry.h"
#include "src/topo/topologies.h"
#include "src/workload/persistent_flow.h"

int main(int argc, char** argv) {
  using namespace tfc;
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header("Fig. 11 - work conservation with two bottlenecks (Fig. 5 topology)",
                "both bottlenecks >900 Mbps; queues ~2 KB");

  Network net(111);
  MultiBottleneckTopology topo = BuildMultiBottleneck(net);
  InstallTfcSwitches(net);

  std::vector<std::unique_ptr<PersistentFlow>> flows;
  auto add = [&](Host* src, Host* dst) {
    flows.push_back(std::make_unique<PersistentFlow>(
        std::make_unique<TfcSender>(&net, src, dst, TfcHostConfig())));
    flows.back()->Start();
  };
  for (int i = 0; i < 8; ++i) {
    add(topo.h1, topo.h4);
  }
  for (int i = 0; i < 2; ++i) {
    add(topo.h1, topo.h3);
  }
  for (int i = 0; i < 2; ++i) {
    add(topo.h2, topo.h3);
  }

  Port* s1_up = Network::FindPort(topo.s1, topo.s2);
  Port* s2_down = Network::FindPort(topo.s2, topo.h3);
  const std::string q1_name = s1_up->metric_prefix() + ".queue_bytes";
  const std::string q2_name = s2_down->metric_prefix() + ".queue_bytes";
  TimeSeriesRecorder recorder(&net.scheduler(), &net.metrics());
  recorder.Watch(q1_name);
  recorder.Watch(q2_name);
  recorder.Start(Milliseconds(1), /*first_delay=*/0);

  const TimeNs sample = quick ? Milliseconds(100) : Seconds(1.0);
  const int steps = quick ? 5 : 20;
  std::printf("%8s %14s %14s %12s %12s\n", "time(s)", "S1-up(Mbps)", "S2-down(Mbps)",
              "q_S1(KB)", "q_S2(KB)");
  Bytes last_up = 0;
  Bytes last_down = 0;
  for (int i = 1; i <= steps; ++i) {
    net.scheduler().RunUntil(sample * i);
    const Bytes up = s1_up->tx_bytes();
    const Bytes down = s2_down->tx_bytes();
    std::printf("%8.1f %14.1f %14.1f %12.2f %12.2f\n", ToSeconds(sample * i),
                static_cast<double>(up - last_up) * 8.0 / ToSeconds(sample) / 1e6,
                static_cast<double>(down - last_down) * 8.0 / ToSeconds(sample) / 1e6,
                static_cast<double>(s1_up->queue_bytes()) / 1024.0,
                static_cast<double>(s2_down->queue_bytes()) / 1024.0);
    last_up = up;
    last_down = down;
  }

  // Per-flow split: n3 flows (h2->h3) take the slack the upstream-limited
  // n2 flows (h1->h3) leave at S2.
  std::printf("\nper-flow goodput over the run:\n");
  const char* labels[] = {"n1 (h1->h4)", "n2 (h1->h3)", "n3 (h2->h3)"};
  const int start[] = {0, 8, 10};
  const int count[] = {8, 2, 2};
  for (int g = 0; g < 3; ++g) {
    double sum = 0;
    for (int i = 0; i < count[g]; ++i) {
      sum += static_cast<double>(flows[static_cast<size_t>(start[g] + i)]->delivered_bytes());
    }
    std::printf("  %-12s %6.1f Mbps per flow\n", labels[g],
                sum / count[g] * 8.0 / ToSeconds(sample * steps) / 1e6);
  }
  RunningStats q1;
  RunningStats q2;
  for (const TimeSeriesRecorder::Sample& s : recorder.Series(q1_name)) {
    q1.Add(s.v);
  }
  for (const TimeSeriesRecorder::Sample& s : recorder.Series(q2_name)) {
    q2.Add(s.v);
  }
  std::printf("\nqueue stats: S1-up mean=%.2f KB max=%.2f KB | S2-down mean=%.2f KB "
              "max=%.2f KB | drops=%llu\n",
              q1.mean() / 1024.0, q1.max() / 1024.0, q2.mean() / 1024.0,
              q2.max() / 1024.0,
              static_cast<unsigned long long>(s1_up->drops() + s2_down->drops()));
  return 0;
}
