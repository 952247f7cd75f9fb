// Segment-size robustness: every protocol must work with small and jumbo
// MSS configurations, not just the 1460-byte default the paper uses.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/topo/topologies.h"
#include "src/workload/persistent_flow.h"
#include "src/workload/protocol.h"

namespace tfc {
namespace {

struct MssCase {
  Protocol protocol;
  uint32_t mss;
};

std::string CaseName(const ::testing::TestParamInfo<MssCase>& info) {
  return std::string(ProtocolName(info.param.protocol)) + "Mss" +
         std::to_string(info.param.mss);
}

class MssSweep : public ::testing::TestWithParam<MssCase> {};

TEST_P(MssSweep, TransferCompletesAndSaturates) {
  const MssCase param = GetParam();
  ProtocolSuite suite;
  suite.protocol = param.protocol;
  suite.tcp.mss = param.mss;
  suite.dctcp.mss = param.mss;
  suite.tfc.transport.mss = param.mss;
  // TFC's switch-side quantum must match the frame size in use, exactly as
  // an operator would configure a jumbo-frame fabric.
  suite.tfc_switch.delay_quantum = param.mss + kHeaderBytes;
  suite.tfc_switch.rtt_measure_min_frame = std::min<uint32_t>(1500, param.mss);

  Network net(71);
  LinkOptions opts;
  opts.switch_buffer_bytes = 512 * 1024;
  opts.ecn_threshold_bytes = suite.EcnThresholdBytes(kGbps);
  StarTopology topo = BuildStar(net, 4, opts, kGbps, Microseconds(20));
  suite.InstallSwitchLogic(net);

  // One fixed-size transfer plus two saturating flows.
  auto fixed = suite.MakeSender(&net, topo.hosts[1], topo.hosts[0]);
  fixed->Write(3'000'000);
  fixed->Close();
  fixed->Start();
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (int i = 2; i <= 3; ++i) {
    flows.push_back(std::make_unique<PersistentFlow>(
        suite.MakeSender(&net, topo.hosts[static_cast<size_t>(i)], topo.hosts[0])));
    flows.back()->Start();
  }
  net.scheduler().RunUntil(Seconds(1.0));

  EXPECT_EQ(fixed->delivered_bytes(), 3'000'000u)
      << CaseName({::testing::TestParamInfo<MssCase>(param, 0)});
  uint64_t total = fixed->delivered_bytes();
  for (auto& f : flows) {
    total += f->delivered_bytes();
  }
  // The link moved a healthy volume regardless of segment size (smaller
  // MSS pays more header overhead, so the floor is loose).
  EXPECT_GT(static_cast<double>(total) * 8.0, 0.5e9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MssSweep,
                         ::testing::Values(MssCase{Protocol::kTcp, 536},
                                           MssCase{Protocol::kTcp, 8960},
                                           MssCase{Protocol::kDctcp, 536},
                                           MssCase{Protocol::kDctcp, 8960},
                                           MssCase{Protocol::kTfc, 536},
                                           MssCase{Protocol::kTfc, 8960},
                                           MssCase{Protocol::kTfc, 1460}),
                         CaseName);

TEST(JumboTest, TfcJumboFlowSurvivesDefaultQuantumSwitch) {
  // Deliberate misconfiguration: jumbo sender, switch quantum left at the
  // 1518 default. The sender's own-frame floor must keep the flow moving
  // (degraded, not deadlocked).
  Network net(73);
  StarTopology topo = BuildStar(net, 3, LinkOptions(), kGbps, Microseconds(20));
  InstallTfcSwitches(net);  // default 1518 quantum
  TfcHostConfig cfg;
  cfg.transport.mss = 8960;
  auto flow = std::make_unique<TfcSender>(&net, topo.hosts[1], topo.hosts[0], cfg);
  flow->Write(1'000'000);
  flow->Close();
  flow->Start();
  net.scheduler().RunUntil(Seconds(5));
  EXPECT_EQ(flow->delivered_bytes(), 1'000'000u);
}

}  // namespace
}  // namespace tfc
