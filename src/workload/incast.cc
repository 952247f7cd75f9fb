#include "src/workload/incast.h"

#include <algorithm>

#include "src/sim/check.h"

namespace tfc {

IncastApp::IncastApp(Network* net, const ProtocolSuite& suite, Host* receiver,
                     std::vector<Host*> senders, const IncastConfig& config)
    : net_(net), config_(config) {
  TFC_CHECK(!senders.empty());
  TFC_CHECK_GT(config.rounds, 0);
  block_fcts_.resize(senders.size());
  for (size_t i = 0; i < senders.size(); ++i) {
    Host* s = senders[i];
    TFC_CHECK_NE(s, receiver);
    auto flow = suite.MakeSender(net, s, receiver);
    flow->on_drained = [this, i] { OnFlowDrained(i); };
    flows_.push_back(std::move(flow));
  }
  // Keyed by receiver so several incast apps on one network do not collide.
  metrics_.Reset(&net->metrics());
  metrics_.AddCallbackGauge("incast." + receiver->name() + ".rounds_completed",
                            [this] { return static_cast<double>(rounds_completed_); });
}

void IncastApp::Start() {
  start_time_ = net_->scheduler().now();
  for (auto& f : flows_) {
    f->Start();
  }
  // First request goes out once connections settle: schedule it after the
  // request delay like every later round.
  net_->scheduler().ScheduleAfter(config_.request_delay, [this] { BeginRound(); });
}

void IncastApp::BeginRound() {
  pending_in_round_ = static_cast<int>(flows_.size());
  round_start_ = net_->scheduler().now();
  for (auto& f : flows_) {
    f->Write(config_.block_bytes);
  }
}

void IncastApp::OnFlowDrained(size_t flow_index) {
  TFC_CHECK_GT(pending_in_round_, 0);
  const TimeNs fct = net_->scheduler().now() - round_start_;
  block_fcts_[flow_index].Add(ToSeconds(fct));
  if (--pending_in_round_ > 0) {
    return;
  }
  ++rounds_completed_;
  if (rounds_completed_ >= config_.rounds) {
    finished_ = true;
    finish_time_ = net_->scheduler().now();
    for (auto& f : flows_) {
      f->Close();
    }
    if (on_finished) {
      on_finished();
    }
    return;
  }
  net_->scheduler().ScheduleAfter(config_.request_delay, [this] { BeginRound(); });
}

double IncastApp::goodput_bps() const {
  const TimeNs end = finished_ ? finish_time_ : net_->scheduler().now();
  const double elapsed = ToSeconds(end - start_time_);
  if (elapsed <= 0) {
    return 0.0;
  }
  const double bytes = static_cast<double>(config_.block_bytes) *
                       static_cast<double>(flows_.size()) *
                       static_cast<double>(rounds_completed_);
  return bytes * 8.0 / elapsed;
}

uint64_t IncastApp::total_timeouts() const {
  uint64_t total = 0;
  for (const auto& f : flows_) {
    total += f->stats().timeouts;
  }
  return total;
}

double IncastApp::max_timeouts_per_block() const {
  const double rounds = std::max(1, rounds_completed_);
  double worst = 0.0;
  for (const auto& f : flows_) {
    worst = std::max(worst, static_cast<double>(f->stats().timeouts) / rounds);
  }
  return worst;
}

SampleSet IncastApp::MergedBlockFcts() const {
  SampleSet merged;
  for (const SampleSet& per_flow : block_fcts_) {
    for (double s : per_flow.samples()) {
      merged.Add(s);
    }
  }
  return merged;
}

}  // namespace tfc
