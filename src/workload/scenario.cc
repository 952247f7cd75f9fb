#include "src/workload/scenario.h"

#include <algorithm>

#include "src/sim/check.h"
#include "src/topo/topologies.h"

namespace tfc {

ScenarioRun::ScenarioRun(const Scenario& scenario)
    : scenario_(scenario), net_(scenario.seed) {
  const Scenario& s = scenario_;
  LinkOptions opts;
  opts.switch_buffer_bytes = s.switch_buffer_bytes;
  opts.ecn_threshold_bytes = s.suite.EcnThresholdBytes(s.link_bps);
  switch (s.topology) {
    case Topology::kStar:
      hosts_ = BuildStar(net_, std::max(s.senders, s.flows) + 1, opts, s.link_bps).hosts;
      break;
    case Topology::kTestbed:
      hosts_ = BuildTestbed(net_, opts, s.link_bps).hosts;
      break;
    case Topology::kLeafSpine:
      hosts_ = BuildLeafSpine(net_, s.racks, s.hosts_per_rack, opts, s.link_bps,
                              10 * s.link_bps)
                   .all_hosts;
      break;
    case Topology::kFatTree:
      hosts_ = BuildFatTree(net_, 4, opts, s.link_bps).hosts;
      break;
  }
  s.suite.InstallSwitchLogic(net_);
}

void ScenarioRun::Start() {
  const Scenario& s = scenario_;
  switch (s.workload) {
    case Workload::kIncast: {
      TFC_CHECK_LE(static_cast<size_t>(s.senders) + 1, hosts_.size());
      std::vector<Host*> responders(hosts_.begin() + 1, hosts_.begin() + 1 + s.senders);
      incast_ = std::make_unique<IncastApp>(&net_, s.suite, hosts_[0],
                                            std::move(responders), s.incast);
      incast_->Start();
      break;
    }
    case Workload::kShuffle: {
      const size_t n = std::min(hosts_.size(), static_cast<size_t>(s.flows));
      shuffle_ = std::make_unique<ShuffleApp>(
          &net_, s.suite, std::vector<Host*>(hosts_.begin(), hosts_.begin() + n), s.shuffle);
      shuffle_->Start();
      break;
    }
    case Workload::kLongFlows:
      for (int i = 1; i <= s.flows && static_cast<size_t>(i) < hosts_.size(); ++i) {
        long_flows_.push_back(std::make_unique<PersistentFlow>(
            s.suite.MakeSender(&net_, hosts_[static_cast<size_t>(i)], hosts_[0])));
        long_flows_.back()->Start();
      }
      break;
    case Workload::kBenchmark:
      benchmark_ = std::make_unique<BenchmarkTrafficApp>(&net_, s.suite, hosts_, s.benchmark);
      benchmark_->Start();
      break;
  }
}

void ScenarioRun::Run() {
  if (scenario_.horizon == 0) {
    // Long flows never finish, so only a horizon ends them.
    TFC_CHECK(scenario_.workload != Workload::kLongFlows);
    net_.scheduler().Run();
  } else {
    net_.scheduler().RunUntil(scenario_.horizon);
  }
}

}  // namespace tfc
