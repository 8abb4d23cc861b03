// A high-water-mark gauge for bytes buffered in flight.
//
// The streaming encode pipeline bounds its memory to O(chunk x workers);
// this gauge is how that bound is *measured* rather than merely claimed:
// every transient buffer (an encoded chunk not yet put, a staged
// container section) registers its bytes while alive, and the peak is
// surfaced in Checkpointer::Stats (asserted by the pipeline tests and
// bench_t3) and raised into a registry gauge
// (ckpt.peak_encode_buffer_bytes), whose value is the highest peak of
// every gauge recording into it.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"

namespace qnn::util {

class MemGauge {
 public:
  /// `registry_peak` (borrowed) is raised to this gauge's peak.
  explicit MemGauge(obs::Gauge& registry_peak)
      : registry_peak_(registry_peak) {}

  void add(std::uint64_t n) {
    const auto now = static_cast<std::int64_t>(current_.fetch_add(n) + n);
    peak_.raise_to(now);
    registry_peak_.raise_to(now);
  }

  void sub(std::uint64_t n) { current_.fetch_sub(n); }

  [[nodiscard]] std::uint64_t peak() const {
    return static_cast<std::uint64_t>(peak_.value());
  }

 private:
  std::atomic<std::uint64_t> current_{0};
  obs::Gauge peak_;  ///< this gauge's own high-water mark
  obs::Gauge& registry_peak_;
};

/// RAII registration of one buffer's bytes against a gauge (null = off).
class GaugedBytes {
 public:
  GaugedBytes() = default;
  GaugedBytes(MemGauge* gauge, std::uint64_t n) : gauge_(gauge), n_(n) {
    if (gauge_ != nullptr) {
      gauge_->add(n_);
    }
  }
  ~GaugedBytes() { release(); }
  GaugedBytes(const GaugedBytes&) = delete;
  GaugedBytes& operator=(const GaugedBytes&) = delete;
  GaugedBytes(GaugedBytes&& other) noexcept
      : gauge_(other.gauge_), n_(other.n_) {
    other.gauge_ = nullptr;
  }
  GaugedBytes& operator=(GaugedBytes&& other) noexcept {
    if (this != &other) {
      release();
      gauge_ = other.gauge_;
      n_ = other.n_;
      other.gauge_ = nullptr;
    }
    return *this;
  }

  void release() {
    if (gauge_ != nullptr) {
      gauge_->sub(n_);
      gauge_ = nullptr;
    }
  }

 private:
  MemGauge* gauge_ = nullptr;
  std::uint64_t n_ = 0;
};

}  // namespace qnn::util
