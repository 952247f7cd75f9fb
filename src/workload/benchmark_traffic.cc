#include "src/workload/benchmark_traffic.h"

#include <algorithm>

#include "src/sim/check.h"

namespace tfc {

EmpiricalCdf WebSearchFlowSizes() {
  // Piecewise-linear approximation of the DCTCP web-search background
  // distribution: half the flows are short messages under 10 KB; the top
  // ~2% of flows (multi-MB) carry most of the bytes. Mean ~= 0.9 MB.
  return EmpiricalCdf({
      {100, 0.00},
      {1'000, 0.10},
      {5'000, 0.30},
      {10'000, 0.50},
      {100'000, 0.70},
      {1'000'000, 0.85},
      {10'000'000, 0.98},
      {30'000'000, 1.00},
  });
}

BenchmarkTrafficApp::BenchmarkTrafficApp(Network* net, const ProtocolSuite& suite,
                                         std::vector<Host*> hosts,
                                         const BenchmarkTrafficConfig& config)
    : net_(net),
      suite_(suite),
      hosts_(std::move(hosts)),
      config_(config),
      rng_(net->rng().Fork()),
      background_sizes_(WebSearchFlowSizes()) {
  TFC_CHECK_GE(hosts_.size(), 2u);
}

void BenchmarkTrafficApp::Start() {
  if (config_.query_interarrival > 0) {
    ScheduleNextQuery();
  }
  if (config_.background_interarrival > 0) {
    ScheduleNextBackground();
  }
}

void BenchmarkTrafficApp::ScheduleNextQuery() {
  const TimeNs gap = static_cast<TimeNs>(
      rng_.Exponential(static_cast<double>(config_.query_interarrival)));
  const TimeNs at = net_->scheduler().now() + std::max<TimeNs>(gap, 1);
  if (at > config_.stop_time) {
    return;
  }
  net_->scheduler().ScheduleAt(at, [this] {
    LaunchQuery();
    ScheduleNextQuery();
  });
}

void BenchmarkTrafficApp::ScheduleNextBackground() {
  const TimeNs gap = static_cast<TimeNs>(
      rng_.Exponential(static_cast<double>(config_.background_interarrival)));
  const TimeNs at = net_->scheduler().now() + std::max<TimeNs>(gap, 1);
  if (at > config_.stop_time) {
    return;
  }
  net_->scheduler().ScheduleAt(at, [this] {
    LaunchBackground();
    ScheduleNextBackground();
  });
}

void BenchmarkTrafficApp::LaunchQuery() {
  // Rotate the aggregator across hosts; every (or `query_fanin`) other host
  // responds with one 2 KB flow — the partition/aggregate fan-in.
  Host* aggregator = hosts_[next_aggregator_ % hosts_.size()];
  ++next_aggregator_;
  int fanin = config_.query_fanin > 0
                  ? std::min<int>(config_.query_fanin, static_cast<int>(hosts_.size()) - 1)
                  : static_cast<int>(hosts_.size()) - 1;
  // Deterministic but rotating choice of responders.
  for (size_t i = 0; i < hosts_.size() && fanin > 0; ++i) {
    Host* responder = hosts_[(next_aggregator_ + i) % hosts_.size()];
    if (responder == aggregator) {
      continue;
    }
    StartFlow(responder, aggregator, config_.query_response_bytes, /*is_query=*/true);
    --fanin;
  }
}

void BenchmarkTrafficApp::LaunchBackground() {
  const EmpiricalCdf& kSizes = background_sizes_;
  const size_t n = hosts_.size();
  const size_t src = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
  size_t dst = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(n) - 2));
  if (dst >= src) {
    ++dst;
  }
  const Bytes bytes = std::max<uint64_t>(100, static_cast<uint64_t>(kSizes.Sample(rng_)));
  StartFlow(hosts_[src], hosts_[dst], bytes, /*is_query=*/false);
}

void BenchmarkTrafficApp::StartFlow(Host* src, Host* dst, Bytes bytes, bool is_query) {
  auto flow = suite_.MakeSender(net_, src, dst);
  ReliableSender* raw = flow.get();
  flow->Write(bytes);
  flow->Close();
  flow->on_complete = [this, raw, bytes, is_query] {
    ++flows_completed_;
    total_timeouts_ += raw->stats().timeouts;
    if (is_query) {
      fct_.AddQuery(raw->stats().fct());
    } else {
      fct_.AddBackground(bytes, raw->stats().fct());
    }
    // Reap asynchronously: the sender's call stack is still active here.
    net_->scheduler().ScheduleAfter(0, [this, raw] {
      auto it = std::find_if(live_flows_.begin(), live_flows_.end(),
                             [raw](const auto& p) { return p.get() == raw; });
      if (it != live_flows_.end()) {
        std::swap(*it, live_flows_.back());
        live_flows_.pop_back();
      }
    });
  };
  flow->Start();
  ++flows_started_;
  live_flows_.push_back(std::move(flow));
}

}  // namespace tfc
