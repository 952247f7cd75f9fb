// Incast (partition/aggregate) workload — paper Sec. 6.1.2 "Bursty Fan-in
// traffic" and Sec. 6.2.1.
//
// A receiver requests a data block from every sender; all senders respond
// synchronously over persistent connections; the receiver cannot request the
// next round until every block of the current round has arrived (barrier).
// The request itself is modelled as a fixed notification delay rather than a
// packet exchange (it is a single small packet on an idle reverse path).

#ifndef SRC_WORKLOAD_INCAST_H_
#define SRC_WORKLOAD_INCAST_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/sim/stats.h"
#include "src/sim/telemetry.h"
#include "src/workload/protocol.h"

namespace tfc {

struct IncastConfig {
  Bytes block_bytes = 256 * 1024;
  int rounds = 50;
  // One-way request notification delay (request packet path latency).
  TimeNs request_delay = Microseconds(30);
};

class IncastApp {
 public:
  IncastApp(Network* net, const ProtocolSuite& suite, Host* receiver,
            std::vector<Host*> senders, const IncastConfig& config);

  // Opens all connections and schedules the first round.
  void Start();

  std::function<void()> on_finished;

  // --- results ---
  int rounds_completed() const { return rounds_completed_; }
  bool finished() const { return finished_; }
  TimeNs start_time() const { return start_time_; }
  TimeNs finish_time() const { return finish_time_; }

  // Application goodput: payload bits delivered per second of elapsed time.
  double goodput_bps() const;  // lint:allow units (measured, fractional)

  uint64_t total_timeouts() const;
  // Worst per-flow average timeouts per block (paper Fig. 15b metric).
  double max_timeouts_per_block() const;

  const std::vector<std::unique_ptr<ReliableSender>>& flows() const { return flows_; }

  // Per-flow block completion times (one sample per block, in whole ns):
  // the incast FCT sink. The registry carries only the
  // "incast.<recv>.rounds_completed" gauge over rounds_completed_.
  const SampleSet& block_fcts_ns(size_t flow_index) const {
    return block_fcts_ns_.at(flow_index);
  }
  // All flows' block FCT samples merged (for percentile queries), in ns.
  SampleSet MergedBlockFctsNs() const;
  // The same samples, each converted to seconds by ToSeconds.
  SampleSet MergedBlockFcts() const;

 private:
  void BeginRound();
  void OnFlowDrained(size_t flow_index);

  Network* net_;
  IncastConfig config_;
  std::vector<std::unique_ptr<ReliableSender>> flows_;
  std::vector<SampleSet> block_fcts_ns_;  // one SampleSet per flow
  int pending_in_round_ = 0;
  int rounds_completed_ = 0;
  bool finished_ = false;
  TimeNs start_time_ = 0;
  TimeNs finish_time_ = 0;
  TimeNs round_start_ = 0;
  ScopedMetrics metrics_;
};

}  // namespace tfc

#endif  // SRC_WORKLOAD_INCAST_H_
