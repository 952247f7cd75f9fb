// Beyond the paper: TFC on a multipath (fat-tree) fabric.
//
// The paper evaluates tree topologies with a single path per host pair and
// notes data centers use multi-rooted trees. This bench runs pod-shifted
// permutation traffic on a k=4 fat tree with per-flow ECMP and compares
// TFC, DCTCP, and TCP on aggregate goodput, loss, and queueing — checking
// that TFC's per-port token allocation composes with multipath routing
// (every port runs its own slot machinery; flows see the min window along
// their hashed path).

#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/workload/scenario.h"

namespace {

using namespace tfc;

void RunOnce(Protocol protocol, bool quick) {
  Scenario s;
  s.topology = Topology::kFatTree;
  s.suite.protocol = protocol;
  s.seed = 181;
  ScenarioRun run(s);
  Network& net = run.net();
  const std::vector<Host*>& hosts = run.hosts();  // pod-major, 4 per pod

  // Pod-shifted permutation: host i of pod p -> host i of pod p+1.
  std::vector<std::unique_ptr<PersistentFlow>> flows;
  for (size_t pod = 0; pod < 4; ++pod) {
    for (size_t i = 0; i < 4; ++i) {
      flows.push_back(std::make_unique<PersistentFlow>(
          s.suite.MakeSender(&net, hosts[4 * pod + i], hosts[4 * ((pod + 1) % 4) + i])));
      flows.back()->Start();
    }
  }

  const TimeNs warmup = quick ? Milliseconds(50) : Milliseconds(300);
  const TimeNs measure = quick ? Milliseconds(100) : Milliseconds(700);
  net.scheduler().RunUntil(warmup);
  std::vector<uint64_t> base;
  for (auto& f : flows) {
    base.push_back(f->delivered_bytes());
  }
  Bytes max_queue = 0;
  for (const auto& node : net.nodes()) {
    if (!node->is_host()) {
      for (const auto& port : node->ports()) {
        port->ResetMaxQueue();
      }
    }
  }
  net.scheduler().RunUntil(warmup + measure);

  double total = 0;
  std::vector<double> rates;
  for (size_t i = 0; i < flows.size(); ++i) {
    rates.push_back(static_cast<double>(flows[i]->delivered_bytes() - base[i]) * 8.0 /
                    ToSeconds(measure));
    total += rates.back();
  }
  uint64_t drops = 0;
  for (const auto& node : net.nodes()) {
    if (node->is_host()) {
      continue;
    }
    for (const auto& port : node->ports()) {
      drops += port->drops();
      max_queue = std::max(max_queue, port->max_queue_bytes());
    }
  }
  std::printf("%-8s %16.2f %10.3f %14.1f %10llu\n", ProtocolName(protocol), total / 1e9,
              JainFairness(rates), static_cast<double>(max_queue) / 1024.0,
              static_cast<unsigned long long>(drops));
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  bench::Header("Beyond the paper: permutation traffic on a k=4 fat tree (ECMP)",
                "TFC's per-port allocation should compose with multipath: high "
                "goodput, zero loss, small queues");
  std::printf("%-8s %16s %10s %14s %10s\n", "proto", "aggregate(Gbps)", "fairness",
              "max_queue(KB)", "drops");
  for (Protocol p : bench::AllProtocols()) {
    RunOnce(p, quick);
  }
  std::printf("\n(16 flows, all inter-pod; per-flow ECMP cannot perfectly pack 16\n"
              " flows onto 4 cores, so the aggregate sits below the full 16 Gbps\n"
              " bisection for every protocol — compare loss and queueing.)\n");
  return 0;
}
