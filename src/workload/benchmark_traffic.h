// Realistic "web search" benchmark traffic — paper Sec. 6.1.2 "Benchmark".
//
// The paper replays query, short-message, and background traffic generated
// from the interarrival and flow-size distributions measured in the DCTCP
// paper (6000 production servers). Those raw traces are not public, so this
// generator reproduces the *described* statistical structure:
//   - Query traffic: Poisson query arrivals; each query makes every other
//     participating server send a 2 KB response to one aggregator
//     (partition/aggregate fan-in; in the large-scale setup this is the
//     paper's "359 servers transmit a query response to the last server").
//   - Background traffic: Poisson flow arrivals between random host pairs
//     with a heavy-tailed empirical size distribution approximating the
//     DCTCP paper's CDF (most flows small, most bytes in multi-MB flows);
//     short messages are the small-size mass of the same distribution.
// FCTs land in an FctRecorder binned exactly like the paper's Fig. 13/16.

#ifndef SRC_WORKLOAD_BENCHMARK_TRAFFIC_H_
#define SRC_WORKLOAD_BENCHMARK_TRAFFIC_H_

#include <memory>
#include <vector>

#include "src/workload/fct.h"
#include "src/workload/protocol.h"

namespace tfc {

// Heavy-tailed background flow-size distribution (bytes), approximating the
// DCTCP web-search workload: ~50% of flows under 10 KB, ~2% above 10 MB.
EmpiricalCdf WebSearchFlowSizes();

struct BenchmarkTrafficConfig {
  // Mean interarrival of queries (Poisson). 0 disables query traffic.
  TimeNs query_interarrival = Milliseconds(10);
  // Servers responding per query (0 = all hosts except the aggregator).
  int query_fanin = 0;
  Bytes query_response_bytes = 2 * 1024;
  // Mean interarrival of background flows (Poisson). 0 disables.
  TimeNs background_interarrival = Milliseconds(2);
  // Stop generating new flows at this time (flows in flight still finish).
  TimeNs stop_time = Seconds(2);
};

class BenchmarkTrafficApp {
 public:
  BenchmarkTrafficApp(Network* net, const ProtocolSuite& suite, std::vector<Host*> hosts,
                      const BenchmarkTrafficConfig& config);

  void Start();

  FctRecorder& fct() { return fct_; }
  uint64_t flows_started() const { return flows_started_; }
  uint64_t flows_completed() const { return flows_completed_; }
  uint64_t total_timeouts() const { return total_timeouts_; }

 private:
  void ScheduleNextQuery();
  void ScheduleNextBackground();
  void LaunchQuery();
  void LaunchBackground();
  void StartFlow(Host* src, Host* dst, Bytes bytes, bool is_query);

  Network* net_;
  ProtocolSuite suite_;
  std::vector<Host*> hosts_;
  BenchmarkTrafficConfig config_;
  // Arrivals, sizes and endpoints, forked from the network's stream when the
  // app is built: every protocol then runs the same traffic at one seed,
  // whatever else (TFC's probe jitter) draws from the network's stream.
  Rng rng_;
  // Per-instance copy (not a function-local static): concurrent sweep
  // workers each own their sampler, so no cross-simulation sharing.
  EmpiricalCdf background_sizes_;
  FctRecorder fct_;
  std::vector<std::unique_ptr<ReliableSender>> live_flows_;
  uint64_t flows_started_ = 0;
  uint64_t flows_completed_ = 0;
  uint64_t total_timeouts_ = 0;
  size_t next_aggregator_ = 0;
};

}  // namespace tfc

#endif  // SRC_WORKLOAD_BENCHMARK_TRAFFIC_H_
