// Fig. 6 — Accuracy of measuring rtt_b.
//
// Setup (paper Sec. 6.1.2): H1 and H2 each send two long-lived TFC flows to
// H3; the switch port toward H3 measures rtt_b (min delimiter round over 1 s
// windows). A reference flow reports its raw per-round RTT samples. End
// hosts add a random processing delay, so the reference RTT is jittery while
// rtt_b captures the floor.
//
// Paper result: measured rtt_b ~59 us vs referenced RTT ~65 us — rtt_b sits
// a roughly constant few microseconds below the reference because it
// excludes the random host processing delay. We print both CDFs.

#include <algorithm>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/sim/timer.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"
#include "src/workload/persistent_flow.h"

int main(int argc, char** argv) {
  using namespace tfc;
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header("Fig. 6 - accuracy of measuring rtt_b",
                "measured rtt_b ~59us, referenced RTT ~65us; constant gap = host jitter");

  Network net(61);
  TestbedTopology topo = BuildTestbed(net);
  for (Host* h : topo.hosts) {
    h->set_processing_delay(Microseconds(3), Microseconds(10));
  }
  InstallTfcSwitches(net);

  // H1, H2 -> H3: two long flows each.
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (Host* src : {topo.hosts[0], topo.hosts[1]}) {
    for (int i = 0; i < 2; ++i) {
      flows.push_back(std::make_unique<PersistentFlow>(
          std::make_unique<TfcSender>(&net, src, topo.hosts[2], TfcHostConfig())));
      flows.back()->Start();
    }
  }
  // Reference: one more flow whose raw RTT samples we record each round.
  auto ref_sender = std::make_unique<TfcSender>(&net, topo.hosts[0], topo.hosts[2],
                                                TfcHostConfig());
  TfcSender* ref = ref_sender.get();
  PersistentFlow ref_flow(std::move(ref_sender));
  ref_flow.Start();

  TfcPortAgent* agent =
      TfcPortAgent::FromPort(Network::FindPort(topo.switches[1], topo.hosts[2]));

  SampleSet rttb_samples;
  SampleSet ref_samples;
  // Sample rtt_b once per interval (paper: per second); raw reference RTT
  // more often to build its CDF.
  const TimeNs total = quick ? Milliseconds(400) : Seconds(4.0);
  const TimeNs rttb_interval = quick ? Milliseconds(20) : Milliseconds(100);
  PeriodicTimer rttb_tick(&net.scheduler(), [&] {
    rttb_samples.Add(ToMicroseconds(agent->rtt_b()));
  });
  PeriodicTimer ref_tick(&net.scheduler(), [&] {
    if (ref->last_rtt_sample() > 0) {
      ref_samples.Add(ToMicroseconds(ref->last_rtt_sample()));
    }
  });
  net.scheduler().RunUntil(Milliseconds(100));  // warm up
  rttb_tick.Start(rttb_interval);
  ref_tick.Start(Milliseconds(1));
  net.scheduler().RunUntil(total);

  std::printf("%-6s %18s %18s\n", "CDF", "measured rtt_b(us)", "referenced RTT(us)");
  for (double p : {5.0, 25.0, 50.0, 75.0, 95.0, 100.0}) {
    std::printf("%5.2f %18.1f %18.1f\n", p / 100.0, rttb_samples.Percentile(p),
                ref_samples.Percentile(p));
  }
  std::printf("\nmean measured rtt_b = %.1f us, mean referenced RTT = %.1f us, "
              "gap = %.1f us\n",
              rttb_samples.Mean(), ref_samples.Mean(),
              ref_samples.Mean() - rttb_samples.Mean());
  std::printf("(rtt_b excludes the random host processing delay; the gap is the\n"
              " roughly constant offset the paper describes, so token adjustment\n"
              " can compensate for it.)\n");
  return 0;
}
