// Ablations of TFC's design choices (not a paper figure; backs the design
// discussion in DESIGN.md §2). Each section removes one mechanism and
// shows what breaks:
//
//   1. token adjustment (Sec. 4.5)   -> multi-bottleneck work conservation
//   2. delay function (Sec. 4.6)     -> loss under high flow concurrency
//   3. resume probe (extension)      -> barrier incast at 400 senders
//   4. EWMA history weight (Eq. 8)   -> stability of the token value
//   5. weighted allocation extension -> bandwidth ratio follows the weight

#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"
#include "src/workload/persistent_flow.h"
#include "src/workload/scenario.h"

namespace {

using namespace tfc;

void AblateTokenAdjustment(bool quick) {
  std::printf("\n[1] token adjustment (host-jitter compensation, Sec. 4.5)\n");
  std::printf("    (4 flows, 1 Gbps, ~100 us of random host processing per RTT)\n");
  std::printf("%-14s %16s\n", "variant", "goodput (Mbps)");
  for (bool adjust : {true, false}) {
    Network net(201);
    StarTopology topo = BuildStar(net, 5, LinkOptions(), kGbps, Microseconds(100));
    for (Host* h : topo.hosts) {
      h->set_processing_delay(Microseconds(20), Microseconds(60));
    }
    TfcSwitchConfig sw;
    sw.enable_token_adjustment = adjust;
    InstallTfcSwitches(net, sw);
    std::vector<std::unique_ptr<PersistentFlow>> flows;
    for (int i = 1; i <= 4; ++i) {
      flows.push_back(std::make_unique<PersistentFlow>(std::make_unique<TfcSender>(
          &net, topo.hosts[static_cast<size_t>(i)], topo.hosts[0], TfcHostConfig())));
      flows.back()->Start();
    }
    const TimeNs measure = quick ? Milliseconds(200) : Milliseconds(800);
    net.scheduler().RunUntil(Milliseconds(200));
    uint64_t before = 0;
    for (auto& f : flows) {
      before += f->delivered_bytes();
    }
    net.scheduler().RunUntil(Milliseconds(200) + measure);
    uint64_t after = 0;
    for (auto& f : flows) {
      after += f->delivered_bytes();
    }
    std::printf("%-14s %16.1f\n", adjust ? "with (Eq. 7)" : "without",
                static_cast<double>(after - before) * 8.0 / ToSeconds(measure) / 1e6);
  }
  std::printf("(rtt_b is a minimum and so excludes the random host delay; the\n"
              " rho0/rho boost buys that capacity back. The mark-based effective-\n"
              " flow count already makes multi-bottleneck cases work-conserving.)\n");
}

void AblateDelayFunction(bool quick) {
  std::printf("\n[2] delay function (80 concurrent flows, sub-MSS windows, 64 KB buffer)\n");
  std::printf("%-14s %10s %12s %14s\n", "variant", "drops", "timeouts", "goodput(Mbps)");
  for (bool delay_fn : {true, false}) {
    Network net(202);
    LinkOptions opts;
    opts.switch_buffer_bytes = 64 * 1024;
    TfcSwitchConfig sw;
    sw.enable_delay_function = delay_fn;
    StarTopology topo = BuildStar(net, 81, opts, kGbps, Microseconds(5));
    InstallTfcSwitches(net, sw);
    std::vector<std::unique_ptr<PersistentFlow>> flows;
    for (int i = 1; i <= 80; ++i) {
      flows.push_back(std::make_unique<PersistentFlow>(std::make_unique<TfcSender>(
          &net, topo.hosts[static_cast<size_t>(i)], topo.hosts[0], TfcHostConfig())));
      flows.back()->Start();
    }
    const TimeNs total = quick ? Milliseconds(150) : Milliseconds(600);
    net.scheduler().RunUntil(total);
    uint64_t timeouts = 0;
    uint64_t delivered = 0;
    for (auto& f : flows) {
      timeouts += f->sender().stats().timeouts;
      delivered += f->delivered_bytes();
    }
    std::printf("%-14s %10llu %12llu %14.1f\n", delay_fn ? "with (4.6)" : "without",
                static_cast<unsigned long long>(
                    Network::FindPort(topo.sw, topo.hosts[0])->drops()),
                static_cast<unsigned long long>(timeouts),
                static_cast<double>(delivered) * 8.0 / ToSeconds(total) / 1e6);
  }
}

void AblateResumeProbe(bool quick) {
  std::printf("\n[3] resume probe (barrier incast, 10 Gbps, 400 senders, 512 KB buffer)\n");
  std::printf("%-14s %10s %12s %18s\n", "variant", "drops", "timeouts",
              "goodput(Gbps)");
  const int senders = quick ? 150 : 400;
  for (bool resume : {true, false}) {
    Scenario s;
    s.suite.tfc.resume_probe = resume;
    s.seed = 203;
    s.link_bps = 10 * kGbps;
    s.switch_buffer_bytes = 512 * 1024;
    s.senders = senders;
    s.incast.block_bytes = 256 * 1024;
    s.incast.rounds = 1 << 20;
    s.horizon = quick ? Milliseconds(300) : Seconds(1.5);
    ScenarioRun run(s);
    run.Start();
    run.Run();
    std::printf("%-14s %10llu %12llu %18.2f\n", resume ? "with" : "without (paper)",
                static_cast<unsigned long long>(run.bottleneck()->drops()),
                static_cast<unsigned long long>(run.incast()->total_timeouts()),
                run.incast()->goodput_bps() / 1e9);
  }
}

void AblateEwma(bool quick) {
  std::printf("\n[4] EWMA history weight alpha (Eq. 8), 4 flows, token stability\n");
  std::printf("%-8s %16s %16s\n", "alpha", "token stddev(B)", "goodput(Mbps)");
  for (double alpha : {0.0, 0.5, 7.0 / 8.0, 15.0 / 16.0}) {
    Network net(204);
    StarTopology topo = BuildStar(net, 5, LinkOptions(), kGbps, Microseconds(20));
    TfcSwitchConfig sw;
    sw.history_weight = alpha;
    InstallTfcSwitches(net, sw);
    std::vector<std::unique_ptr<PersistentFlow>> flows;
    for (int i = 1; i <= 4; ++i) {
      flows.push_back(std::make_unique<PersistentFlow>(std::make_unique<TfcSender>(
          &net, topo.hosts[static_cast<size_t>(i)], topo.hosts[0], TfcHostConfig())));
      flows.back()->Start();
    }
    TfcPortAgent* agent =
        TfcPortAgent::FromPort(Network::FindPort(topo.sw, topo.hosts[0]));
    RunningStats token;
    net.scheduler().RunUntil(Milliseconds(100));
    agent->on_slot = [&](const TfcPortAgent::SlotInfo& info) {
      token.Add(info.token.value());
    };
    uint64_t before = 0;
    for (auto& f : flows) {
      before += f->delivered_bytes();
    }
    const TimeNs measure = quick ? Milliseconds(100) : Milliseconds(400);
    net.scheduler().RunUntil(Milliseconds(100) + measure);
    uint64_t after = 0;
    for (auto& f : flows) {
      after += f->delivered_bytes();
    }
    std::printf("%-8.4f %16.1f %16.1f\n", alpha, token.stddev(),
                static_cast<double>(after - before) * 8.0 / ToSeconds(measure) / 1e6);
  }
}

void AblateWeights(bool quick) {
  std::printf("\n[5] weighted allocation (2 flows, weight 1 vs w)\n");
  std::printf("%-8s %16s %16s\n", "weight", "rate ratio", "total(Mbps)");
  for (uint8_t w : {uint8_t{1}, uint8_t{2}, uint8_t{4}, uint8_t{8}}) {
    Network net(205);
    StarTopology topo = BuildStar(net, 3, LinkOptions(), kGbps, Microseconds(20));
    InstallTfcSwitches(net);
    TfcHostConfig plain;
    TfcHostConfig weighted;
    weighted.weight = w;
    PersistentFlow f1(
        std::make_unique<TfcSender>(&net, topo.hosts[1], topo.hosts[0], plain));
    PersistentFlow f2(
        std::make_unique<TfcSender>(&net, topo.hosts[2], topo.hosts[0], weighted));
    f1.Start();
    f2.Start();
    net.scheduler().RunUntil(Milliseconds(150));
    const uint64_t b1 = f1.delivered_bytes();
    const uint64_t b2 = f2.delivered_bytes();
    const TimeNs measure = quick ? Milliseconds(100) : Milliseconds(400);
    net.scheduler().RunUntil(Milliseconds(150) + measure);
    const double r1 = static_cast<double>(f1.delivered_bytes() - b1);
    const double r2 = static_cast<double>(f2.delivered_bytes() - b2);
    std::printf("%-8d %16.2f %16.1f\n", w, r2 / r1,
                (r1 + r2) * 8.0 / ToSeconds(measure) / 1e6);
  }
  std::printf("(ratios are weight-proportional while the per-unit window stays\n"
              " above one MSS; at high weights the unweighted flow's one-frame\n"
              " floor compresses the split toward equal.)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header("Ablations - what each TFC mechanism buys",
                "remove one mechanism at a time; see DESIGN.md section 2");
  AblateTokenAdjustment(quick);
  AblateDelayFunction(quick);
  AblateResumeProbe(quick);
  AblateEwma(quick);
  AblateWeights(quick);
  return 0;
}
