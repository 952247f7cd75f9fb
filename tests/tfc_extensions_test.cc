// Tests for the documented TFC extensions: weighted token allocation
// (paper Sec. 4.1's "any allocation policies") and the token-adjustment
// ablation switch.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"
#include "src/workload/persistent_flow.h"

namespace tfc {
namespace {

struct WeightedPair {
  double rate_w1;
  double rate_w;
};

// Two long flows share a 1 Gbps port; the second has the given weight.
WeightedPair RunWeighted(uint8_t weight) {
  Network net(77);
  StarTopology topo = BuildStar(net, 3, LinkOptions(), kGbps, Microseconds(20));
  InstallTfcSwitches(net);

  TfcHostConfig plain;
  TfcHostConfig weighted;
  weighted.weight = weight;
  PersistentFlow f1(std::make_unique<TfcSender>(&net, topo.hosts[1], topo.hosts[0], plain));
  PersistentFlow f2(
      std::make_unique<TfcSender>(&net, topo.hosts[2], topo.hosts[0], weighted));
  f1.Start();
  f2.Start();
  net.scheduler().RunUntil(Milliseconds(150));
  const uint64_t b1 = f1.delivered_bytes();
  const uint64_t b2 = f2.delivered_bytes();
  net.scheduler().RunUntil(Milliseconds(350));
  return WeightedPair{static_cast<double>(f1.delivered_bytes() - b1),
                      static_cast<double>(f2.delivered_bytes() - b2)};
}

TEST(TfcWeightedAllocationTest, EqualWeightsShareEqually) {
  WeightedPair r = RunWeighted(1);
  EXPECT_NEAR(r.rate_w / r.rate_w1, 1.0, 0.1);
}

TEST(TfcWeightedAllocationTest, DoubleWeightGetsDoubleShare) {
  WeightedPair r = RunWeighted(2);
  EXPECT_NEAR(r.rate_w / r.rate_w1, 2.0, 0.3);
}

TEST(TfcWeightedAllocationTest, QuadWeightGetsQuadShare) {
  WeightedPair r = RunWeighted(4);
  EXPECT_NEAR(r.rate_w / r.rate_w1, 4.0, 0.8);
}

TEST(TfcWeightedAllocationTest, TotalUtilizationUnaffectedByWeights) {
  WeightedPair equal = RunWeighted(1);
  WeightedPair skewed = RunWeighted(4);
  const double total_equal = equal.rate_w1 + equal.rate_w;
  const double total_skewed = skewed.rate_w1 + skewed.rate_w;
  EXPECT_NEAR(total_skewed / total_equal, 1.0, 0.12);
}

TEST(TfcAblationTest, TokenAdjustmentCompensatesHostJitter) {
  // Sec. 4.5's second motivation: rtt_b (a minimum) excludes the random
  // host processing delay, so without the rho0/rho boost the token value
  // undershoots the real pipeline and the link runs visibly below target.
  auto run = [](bool adjust) {
    Network net(78);
    StarTopology topo = BuildStar(net, 5, LinkOptions(), kGbps, Microseconds(100));
    for (Host* h : topo.hosts) {
      // Large jitter relative to the ~450 us RTT: mean ~50 us per direction.
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
    net.scheduler().RunUntil(Milliseconds(200));
    uint64_t before = 0;
    for (auto& f : flows) {
      before += f->delivered_bytes();
    }
    net.scheduler().RunUntil(Milliseconds(500));
    uint64_t after = 0;
    for (auto& f : flows) {
      after += f->delivered_bytes();
    }
    return static_cast<double>(after - before) * 8.0 / 0.3;
  };

  const double with_adjust = run(true);
  const double without_adjust = run(false);
  EXPECT_GT(with_adjust, 0.85e9);
  // The boost recovers the few percent of capacity the jitter-depressed
  // rtt_b leaves on the table.
  EXPECT_LT(without_adjust, with_adjust * 0.97);
}

TEST(TfcAblationTest, WithoutDelayFunctionConcurrencyCausesDrops) {
  // 80 concurrent flows at 1 Gbps: fair windows are far below one MSS.
  // Without the Sec. 4.6 delay function every flow still sends at least one
  // full frame per round, overrunning the port.
  auto run = [](bool delay_fn) {
    Network net(79);
    LinkOptions opts;
    opts.switch_buffer_bytes = 64 * 1024;  // tight buffer to expose the burst
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
    net.scheduler().RunUntil(Milliseconds(200));
    return Network::FindPort(topo.sw, topo.hosts[0])->drops();
  };

  EXPECT_EQ(run(true), 0u);
  EXPECT_GT(run(false), 0u);
}

}  // namespace
}  // namespace tfc
