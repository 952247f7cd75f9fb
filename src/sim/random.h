// Deterministic random number generation for workloads.
//
// Each Network owns one Rng, seeded by its seed, so that a fixed seed
// reproduces a run bit-for-bit; a workload generator forks a stream of its
// own from it (Rng::Fork). All distribution helpers are methods
// (rather than std:: distribution objects at call sites) so the consumed
// entropy per call is well defined.

#ifndef SRC_SIM_RANDOM_H_
#define SRC_SIM_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "src/sim/check.h"

namespace tfc {

class Rng {
 public:
  explicit Rng(uint64_t seed = 1) : engine_(seed) {}

  // Uniform in [0, 1).
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Exponential with the given mean (> 0).
  double Exponential(double mean) {
    TFC_CHECK_GT(mean, 0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  bool Bernoulli(double p) { return Uniform() < p; }

  // Splits off a stream of its own: the returned Rng draws exactly what this
  // one would have drawn next, and this one is re-keyed from its own next
  // draw. A consumer moved onto a fork keeps its draws, and the consumers
  // left on the parent no longer shift them.
  Rng Fork() {
    Rng fork = *this;
    engine_.seed(engine_() ^ kForkKey);
    return fork;
  }

 private:
  static constexpr uint64_t kForkKey = 0x9e3779b97f4a7c15;  // 2^64 / golden ratio

  std::mt19937_64 engine_;
};

// Piecewise-linear empirical CDF sampler: given (value, cumulative
// probability) knots, samples by inverse transform with linear interpolation
// between knots. Used to reproduce the measured flow-size and interarrival
// distributions of the DCTCP benchmark workload.
class EmpiricalCdf {
 public:
  struct Knot {
    double value;  // sample value at this knot
    double cum;    // cumulative probability in [0, 1], non-decreasing
  };

  explicit EmpiricalCdf(std::vector<Knot> knots) : knots_(std::move(knots)) {
    TFC_CHECK_GE(knots_.size(), 2u);
    TFC_CHECK_EQ(knots_.front().cum, 0.0);
    TFC_CHECK_EQ(knots_.back().cum, 1.0);
    for (size_t i = 1; i < knots_.size(); ++i) {
      TFC_CHECK_GE(knots_[i].cum, knots_[i - 1].cum);
      TFC_CHECK_GE(knots_[i].value, knots_[i - 1].value);
    }
  }

  double Sample(Rng& rng) const {
    const double u = rng.Uniform();
    // Find the first knot with cum >= u and interpolate from its predecessor.
    size_t hi = 1;
    while (hi < knots_.size() - 1 && knots_[hi].cum < u) {
      ++hi;
    }
    const Knot& a = knots_[hi - 1];
    const Knot& b = knots_[hi];
    if (b.cum <= a.cum) {
      return b.value;
    }
    const double frac = (u - a.cum) / (b.cum - a.cum);
    return a.value + frac * (b.value - a.value);
  }

  // Expected value of the distribution (area under the inverse CDF).
  double Mean() const {
    double mean = 0.0;
    for (size_t i = 1; i < knots_.size(); ++i) {
      const double width = knots_[i].cum - knots_[i - 1].cum;
      mean += width * 0.5 * (knots_[i].value + knots_[i - 1].value);
    }
    return mean;
  }

 private:
  std::vector<Knot> knots_;
};

}  // namespace tfc

#endif  // SRC_SIM_RANDOM_H_
