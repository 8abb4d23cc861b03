// Streaming moments, which the tests use to check sampled distributions
// (util_test, sched_test). Latencies go to obs::LatencyHistogram.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace qnn::util {

/// Welford running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace qnn::util
