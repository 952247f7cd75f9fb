// One scenario description and its builder, shared by tfcsim, the figure
// benches, micro_core and the tests: a fabric from src/topo provisioned for
// one protocol (switch buffer, DCTCP marking threshold, TFC switch agents)
// plus one of tfcsim's four workloads.
//
//   Scenario s;
//   s.topology = Topology::kTestbed;
//   s.suite.protocol = Protocol::kDctcp;
//   s.senders = 8;
//   ScenarioRun run(s);     // builds and provisions the fabric
//   ...                     // attach recorders, tracers, fault injectors
//   run.Start();            // creates and starts the workload
//   run.Run();              // drains, or runs to s.horizon
//   run.incast()->goodput_bps();
//
// Callers that bring their own flows skip Start()/Run() and drive
// run.net().scheduler() on run.hosts() directly.

#ifndef SRC_WORKLOAD_SCENARIO_H_
#define SRC_WORKLOAD_SCENARIO_H_

#include <memory>
#include <vector>

#include "src/workload/benchmark_traffic.h"
#include "src/workload/incast.h"
#include "src/workload/persistent_flow.h"
#include "src/workload/protocol.h"
#include "src/workload/shuffle.h"

namespace tfc {

enum class Topology { kStar, kTestbed, kLeafSpine, kFatTree };
enum class Workload { kIncast, kShuffle, kLongFlows, kBenchmark };

struct Scenario {
  Topology topology = Topology::kStar;
  Workload workload = Workload::kIncast;
  ProtocolSuite suite;
  uint64_t seed = 1;
  // Host link rate; leaf-spine uplinks run at 10x. Every link keeps its
  // topology builder's default delay, and a fat tree has k = 4.
  BitsPerSec link_bps = kGbps;
  Bytes switch_buffer_bytes = 256 * 1024;
  int racks = 6;            // leaf-spine only
  int hosts_per_rack = 8;   // leaf-spine only
  // The star has max(senders, flows) + 1 hosts. hosts()[0] receives the
  // incast from hosts()[1..senders] and every long flow, which run from
  // hosts()[1..flows]; a shuffle runs among hosts()[0..flows).
  int senders = 0;
  int flows = 0;
  IncastConfig incast;
  ShuffleConfig shuffle;
  BenchmarkTrafficConfig benchmark;
  // Run() drains the event queue when 0, else runs until this time.
  TimeNs horizon = 0;
};

class ScenarioRun {
 public:
  // Builds the fabric and installs the protocol's switch logic; schedules
  // nothing, so a caller can attach observers before Start().
  explicit ScenarioRun(const Scenario& scenario);
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  // Creates the workload's app (or long flows) and starts it.
  void Start();
  void Run();

  Network& net() { return net_; }
  const std::vector<Host*>& hosts() const { return hosts_; }
  // The switch port toward hosts()[0]: the incast and long-flow bottleneck.
  Port* bottleneck() const { return hosts_[0]->ports()[0]->peer_port(); }

  // The started workload; null (or empty) for the other workloads.
  IncastApp* incast() const { return incast_.get(); }
  ShuffleApp* shuffle() const { return shuffle_.get(); }
  BenchmarkTrafficApp* benchmark() const { return benchmark_.get(); }
  const std::vector<std::unique_ptr<PersistentFlow>>& long_flows() const {
    return long_flows_;
  }

 private:
  const Scenario scenario_;
  // Declared before the apps so the apps are destroyed first.
  Network net_;
  std::vector<Host*> hosts_;
  std::unique_ptr<IncastApp> incast_;
  std::unique_ptr<ShuffleApp> shuffle_;
  std::unique_ptr<BenchmarkTrafficApp> benchmark_;
  std::vector<std::unique_ptr<PersistentFlow>> long_flows_;
};

}  // namespace tfc

#endif  // SRC_WORKLOAD_SCENARIO_H_
