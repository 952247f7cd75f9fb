// Cross-product sweeps: every protocol on every topology shape must at
// minimum complete transfers correctly; protocol-specific invariants are
// layered per case. These are the "does the whole matrix hold together"
// tests a release gets judged by.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/topo/topologies.h"
#include "src/workload/scenario.h"

namespace tfc {
namespace {

// ---------------------------------------------------------------------------
// Protocol x topology: a 1 MB transfer across every distinct path shape.
// ---------------------------------------------------------------------------

enum class Topo { kStar, kTestbed, kMultiBottleneck, kLeafSpine, kFatTree };

const char* TopoName(Topo t) {
  switch (t) {
    case Topo::kStar:
      return "Star";
    case Topo::kTestbed:
      return "Testbed";
    case Topo::kMultiBottleneck:
      return "MultiBottleneck";
    case Topo::kLeafSpine:
      return "LeafSpine";
    case Topo::kFatTree:
      return "FatTree";
  }
  return "?";
}

struct MatrixCase {
  Protocol protocol;
  Topo topo;
};

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  return std::string(ProtocolName(info.param.protocol)) + TopoName(info.param.topo);
}

class ProtocolTopologyMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ProtocolTopologyMatrix, OneMegabyteTransferCompletesExactly) {
  const MatrixCase param = GetParam();
  ProtocolSuite suite;
  suite.protocol = param.protocol;
  Network net(61);
  LinkOptions opts;
  opts.ecn_threshold_bytes = suite.EcnThresholdBytes(kGbps);

  Host* src = nullptr;
  Host* dst = nullptr;
  switch (param.topo) {
    case Topo::kStar: {
      StarTopology t = BuildStar(net, 3, opts);
      src = t.hosts[1];
      dst = t.hosts[0];
      break;
    }
    case Topo::kTestbed: {
      TestbedTopology t = BuildTestbed(net, opts);
      src = t.hosts[0];  // cross-rack 4-hop path
      dst = t.hosts[8];
      break;
    }
    case Topo::kMultiBottleneck: {
      MultiBottleneckTopology t = BuildMultiBottleneck(net, opts);
      src = t.h1;
      dst = t.h3;
      break;
    }
    case Topo::kLeafSpine: {
      LeafSpineTopology t = BuildLeafSpine(net, 3, 2, opts);
      src = t.racks[0][0];
      dst = t.racks[2][1];
      break;
    }
    case Topo::kFatTree: {
      FatTreeTopology t = BuildFatTree(net, 4, opts);
      src = t.host(0, 0);
      dst = t.host(2, 3);
      break;
    }
  }
  suite.InstallSwitchLogic(net);

  auto flow = suite.MakeSender(&net, src, dst);
  flow->Write(1'000'000);
  flow->Close();
  flow->Start();
  net.scheduler().RunUntil(Seconds(30));

  EXPECT_EQ(flow->state(), ReliableSender::State::kClosed)
      << ProtocolName(param.protocol) << " on " << TopoName(param.topo);
  EXPECT_EQ(flow->delivered_bytes(), 1'000'000u);
  EXPECT_EQ(flow->stats().timeouts, 0u);  // single flow: no congestion
  EXPECT_EQ(net.scheduler().pending(), 0u) << "leaked timers";
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ProtocolTopologyMatrix,
    ::testing::Values(MatrixCase{Protocol::kTcp, Topo::kStar},
                      MatrixCase{Protocol::kTcp, Topo::kTestbed},
                      MatrixCase{Protocol::kTcp, Topo::kMultiBottleneck},
                      MatrixCase{Protocol::kTcp, Topo::kLeafSpine},
                      MatrixCase{Protocol::kTcp, Topo::kFatTree},
                      MatrixCase{Protocol::kDctcp, Topo::kStar},
                      MatrixCase{Protocol::kDctcp, Topo::kTestbed},
                      MatrixCase{Protocol::kDctcp, Topo::kMultiBottleneck},
                      MatrixCase{Protocol::kDctcp, Topo::kLeafSpine},
                      MatrixCase{Protocol::kDctcp, Topo::kFatTree},
                      MatrixCase{Protocol::kTfc, Topo::kStar},
                      MatrixCase{Protocol::kTfc, Topo::kTestbed},
                      MatrixCase{Protocol::kTfc, Topo::kMultiBottleneck},
                      MatrixCase{Protocol::kTfc, Topo::kLeafSpine},
                      MatrixCase{Protocol::kTfc, Topo::kFatTree}),
    CaseName);

// ---------------------------------------------------------------------------
// TFC incast zero-loss invariant across sender counts (the paper's core
// claim, asserted as a sweep).
// ---------------------------------------------------------------------------

class TfcIncastSenderSweep : public ::testing::TestWithParam<int> {};

TEST_P(TfcIncastSenderSweep, ZeroLossZeroTimeouts) {
  const int senders = GetParam();
  Scenario s;
  s.seed = 63;
  s.senders = senders;
  s.incast.block_bytes = 128 * 1024;
  s.incast.rounds = 3;
  s.horizon = Seconds(20);
  ScenarioRun run(s);
  run.Start();
  run.Run();
  const IncastApp& app = *run.incast();
  ASSERT_TRUE(app.finished()) << senders << " senders";
  EXPECT_EQ(app.total_timeouts(), 0u);
  EXPECT_EQ(run.bottleneck()->drops(), 0u);
  EXPECT_GT(app.goodput_bps(), 0.75e9);
}

INSTANTIATE_TEST_SUITE_P(Senders, TfcIncastSenderSweep,
                         ::testing::Values(2, 10, 40, 80, 120),
                         ::testing::PrintToStringParamName());

// ---------------------------------------------------------------------------
// TFC weighted allocation sweep (ratio tracks the weight in the W>MSS
// regime).
// ---------------------------------------------------------------------------

class TfcWeightSweep : public ::testing::TestWithParam<int> {};

TEST_P(TfcWeightSweep, RatioTracksWeight) {
  const uint8_t w = static_cast<uint8_t>(GetParam());
  Network net(65);
  StarTopology topo = BuildStar(net, 3, LinkOptions(), kGbps, Microseconds(100));
  InstallTfcSwitches(net);
  TfcHostConfig plain;
  TfcHostConfig weighted;
  weighted.weight = w;
  auto f1 = std::make_unique<TfcSender>(&net, topo.hosts[1], topo.hosts[0], plain);
  auto f2 = std::make_unique<TfcSender>(&net, topo.hosts[2], topo.hosts[0], weighted);
  f1->Write(100'000'000);
  f2->Write(100'000'000);
  f1->Start();
  f2->Start();
  net.scheduler().RunUntil(Milliseconds(200));
  const uint64_t b1 = f1->delivered_bytes();
  const uint64_t b2 = f2->delivered_bytes();
  net.scheduler().RunUntil(Milliseconds(500));
  const double r1 = static_cast<double>(f1->delivered_bytes() - b1);
  const double r2 = static_cast<double>(f2->delivered_bytes() - b2);
  EXPECT_NEAR(r2 / r1, static_cast<double>(w), 0.25 * w);
}

INSTANTIATE_TEST_SUITE_P(Weights, TfcWeightSweep, ::testing::Values(1, 2, 3),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace tfc
