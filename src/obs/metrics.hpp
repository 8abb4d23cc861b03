// Metrics registry: named counters, gauges and latency histograms.
//
// The registry is the system's one accumulator for "how much and how
// fast": every instrumented layer (ObservedEnv per-op classes, the
// Checkpointer's counts and stage timings, the async writer, GC, chunk
// store and tier engine) records into instruments it obtained from a
// MetricsRegistry once, by name, and a snapshot renders the whole
// population as either a stable text dump or a JsonLine-compatible JSON
// blob (RESULT lines, the inspector's --metrics view). The components'
// stats() structs are snapshots of their instruments, not second
// counts.
//
// Cost model, in order of heat:
//   * recording on an instrument is a relaxed atomic add — no locks, no
//     allocation, safe from any thread, and cheap enough for per-op I/O
//     accounting;
//   * obtaining an instrument (counter()/gauge()/histogram()) takes the
//     registry mutex and may allocate — do it once at construction and
//     keep the reference, which stays valid for the registry's lifetime;
//   * snapshots (text()/json()) take the mutex and walk every
//     instrument.
//
// Components always count: each takes an optional MetricsRegistry* and,
// when it is null, records into a private registry of its own
// (shared_or_own), so its stats() works either way. Only ObservedEnv and
// the tracer are opt-in, mounted by the caller. A component records
// through shares of its instruments (CounterShare, HistogramShare,
// GaugeShare below), which keep its stats() its own on a registry that
// other components record into as well.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace qnn::obs {

/// Monotonic event count (relaxed atomic; exact totals, no ordering).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A signed instantaneous level (queue depth, buffered bytes), or the
/// high-water mark of one (raise_to).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  /// Raises the level to `v` when it is lower; racing raises keep the
  /// maximum.
  void raise_to(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket latency histogram over power-of-two microsecond edges:
/// bucket 0 holds sub-microsecond samples, bucket i >= 1 holds
/// [2^(i-1), 2^i) us, and the last bucket absorbs everything slower.
/// Recording is one relaxed add per sample; quantiles are answered from
/// the bucket population (upper-edge estimate, never an under-report).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void record_seconds(double s) { record_us(s * 1e6); }
  void record_us(double us);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum_us() const {
    return sum_ns_.load(std::memory_order_relaxed) / 1000;
  }
  [[nodiscard]] double sum_seconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e9;
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return counts_.at(i).load(std::memory_order_relaxed);
  }
  /// Upper bucket edge in microseconds (UINT64_MAX for the overflow
  /// bucket).
  [[nodiscard]] static std::uint64_t bucket_edge_us(std::size_t i);
  /// Bucket-resolution quantile estimate (p in [0,100]): the upper edge
  /// of the bucket holding the p-th sample. 0 when empty.
  [[nodiscard]] std::uint64_t percentile_us(double p) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Named instrument directory. Instruments are created on first use and
/// live as long as the registry; the returned references are stable, so
/// hot paths resolve names once and record lock-free thereafter.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  /// Stable human-readable dump: one sorted `kind name value` line per
  /// instrument (histograms additionally show count/sum/p50/p99).
  [[nodiscard]] std::string text() const;

  /// JSON snapshot compatible with the bench RESULT-line tooling:
  ///   {"schema":"metrics-v1","bench":"<bench>","counters":{...},
  ///    "gauges":{...},"histograms":{"x":{"count":..,"sum_us":..,
  ///    "p50_us":..,"p99_us":..}}}
  /// check_regression.py flattens counters/gauges/histogram stats into
  /// plain metrics, so registry snapshots can be gated like any other
  /// RESULT line. `bench` is omitted when empty.
  [[nodiscard]] std::string json(const std::string& bench = "") const;

 private:
  mutable std::mutex mu_;
  // std::map: stable addresses via unique_ptr AND sorted iteration, so
  // text()/json() dumps are deterministic for a deterministic workload.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// The registry a component records into: `shared` when the caller
/// passed one, else a new one that `own` keeps for the component.
MetricsRegistry& shared_or_own(MetricsRegistry* shared,
                               std::unique_ptr<MetricsRegistry>& own);

/// One component's share of a counter: add() records into the counter,
/// value() reads it net of what it held when the share was taken. That
/// is what the component added when the registry serves components in
/// turn; components recording into one registry at the same time add
/// into the same counter, and each share reads their sum.
class CounterShare {
 public:
  explicit CounterShare(Counter& counter)
      : counter_(counter), base_(counter.value()) {}
  void add(std::uint64_t n = 1) { counter_.add(n); }
  [[nodiscard]] std::uint64_t value() const {
    return counter_.value() - base_;
  }

 private:
  Counter& counter_;
  const std::uint64_t base_;
};

/// A CounterShare for a latency histogram's sum.
class HistogramShare {
 public:
  explicit HistogramShare(LatencyHistogram& histogram)
      : histogram_(histogram), base_seconds_(histogram.sum_seconds()) {}
  void record_seconds(double s) { histogram_.record_seconds(s); }
  [[nodiscard]] double sum_seconds() const {
    return histogram_.sum_seconds() - base_seconds_;
  }

 private:
  LatencyHistogram& histogram_;
  const double base_seconds_;
};

/// A level one component owns (packfiles indexed, bytes resident),
/// written through to a gauge: value() is the component's own, the gauge
/// shows the level its latest writer set (a new share writes 0). The
/// owner serialises writers; reads are lock-free.
class GaugeShare {
 public:
  explicit GaugeShare(Gauge& gauge) : gauge_(gauge) { gauge_.set(0); }
  void set(std::uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    gauge_.set(static_cast<std::int64_t>(v));
  }
  void add(std::int64_t d) { set(value() + static_cast<std::uint64_t>(d)); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  Gauge& gauge_;
  std::atomic<std::uint64_t> v_{0};
};

}  // namespace qnn::obs
