// Streaming moments, which the tests use to check sampled distributions
// (util_test, sched_test). Latencies go to obs::LatencyHistogram.
#pragma once

#include <cstddef>

namespace qnn::util {

/// Welford running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
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
