// Small statistics helpers shared across the library: running summaries,
// percentile extraction, and Jain's fairness index.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/check.h"

namespace tfc {

// Running min/max/mean/variance without storing samples (Welford).
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Stores samples for percentile queries (FCT distributions, CDFs).
class SampleSet {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double Mean() const {
    if (samples_.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (double s : samples_) {
      sum += s;
    }
    return sum / static_cast<double>(samples_.size());
  }

  // Percentile p in [0, 100], linearly interpolated between the two
  // neighbouring order statistics (the "exclusive" definition used by
  // numpy.percentile's default): p maps to fractional rank
  // p/100 * (n - 1), and the result is lerped between samples_[floor] and
  // samples_[ceil]. Exact for p=0 (min) and p=100 (max).
  double Percentile(double p) {
    if (samples_.empty()) {
      return 0.0;
    }
    Sort();
    return PercentileSorted(p);
  }

  double Max() {
    Sort();
    return samples_.empty() ? 0.0 : samples_.back();
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void Sort() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  // Requires Sort() to have run and samples_ to be non-empty.
  double PercentileSorted(double p) const {
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
  }

  std::vector<double> samples_;
  bool sorted_ = false;
};

// Jain's fairness index over per-entity allocations: (sum x)^2 / (n * sum x^2).
// 1.0 = perfectly fair; 1/n = maximally unfair.
inline double JainFairness(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sumsq = 0.0;
  for (double x : xs) {
    sum += x;
    sumsq += x * x;
  }
  if (sumsq == 0.0) {
    return 1.0;
  }
  return sum * sum / (static_cast<double>(xs.size()) * sumsq);
}

}  // namespace tfc

#endif  // SRC_SIM_STATS_H_
