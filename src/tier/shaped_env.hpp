// Latency/bandwidth-shaping Env decorator.
//
// ShapedEnv charges every operation against a simple device model —
// fixed per-op latency plus payload bytes over a bandwidth — and
// accumulates the charges as *modeled* seconds. The model makes the
// hot/cold asymmetry of a TieredEnv measurable deterministically: a
// seeded workload always moves the same bytes through the same ops, so
// the modeled cost is machine-independent and can be gated against
// bench baselines (bench_t7_tiering), unlike wall-clock time. The
// decorator only counts the modeled cost; it never sleeps it.
//
// Streaming ops map onto the model the way a real device behaves:
// opening a kAtomic (staged) write stream costs one write latency and
// each append pays bandwidth, while every kPlain append is an
// independent device op (latency + bandwidth — the WAL group-commit
// path depends on per-record charging); each pread is an independent
// I/O (one read latency plus bandwidth for the returned range) — which
// is exactly why ranged reads make read amplification visible: touching
// a 100-byte footer of a 100 MB pack costs a latency, not a
// megabyte-scale transfer.
//
// The defaults for the two canonical shapes come from the all-flash
// Ceph study's observation that capacity/remote tiers differ from local
// NVMe by orders of magnitude in latency and a large factor in
// bandwidth: local_nvme_shape() (~80 us, ~2 GB/s) vs
// object_store_shape() (~8 ms, ~120 MB/s).
#pragma once

#include <atomic>
#include <cstdint>

#include "io/env.hpp"

namespace qnn::tier {

using util::Bytes;
using util::ByteSpan;

/// The device model. 0 latency = free op; 0 bandwidth = infinite.
struct ShapeSpec {
  double read_latency_s = 0.0;
  double write_latency_s = 0.0;
  double read_bytes_per_s = 0.0;
  double write_bytes_per_s = 0.0;
  /// Metadata round trips (exists / file_size / list_dir / remove)
  /// charge this, defaulting to the read latency when negative.
  double metadata_latency_s = -1.0;
};

/// A fast local NVMe-ish hot tier.
ShapeSpec local_nvme_shape();
/// A high-latency, capacity-oriented cold tier (object-store-like).
ShapeSpec object_store_shape();

class ShapedEnv final : public io::Env {
 public:
  ShapedEnv(io::Env& base, ShapeSpec spec);

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override;
  std::unique_ptr<io::RandomAccessFile> open_ranged(
      const std::string& path) override;
  bool exists(const std::string& path) override;
  void remove_file(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  std::optional<std::uint64_t> file_size(const std::string& path) override;
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return base_.bytes_written();
  }
  [[nodiscard]] std::uint64_t bytes_read() const override {
    return base_.bytes_read();
  }

  /// Accumulated modeled charges (deterministic for a seeded workload).
  [[nodiscard]] double modeled_read_seconds() const;
  [[nodiscard]] double modeled_write_seconds() const;
  [[nodiscard]] double modeled_seconds() const {
    return modeled_read_seconds() + modeled_write_seconds();
  }

  [[nodiscard]] const ShapeSpec& spec() const { return spec_; }

 private:
  friend class ShapedWritableFile;
  friend class ShapedRandomAccessFile;

  /// Charges `seconds` to `bucket` (atomically, in nanoseconds).
  void charge(std::atomic<std::uint64_t>& bucket, double seconds) const;
  [[nodiscard]] double read_cost(std::uint64_t bytes) const;
  [[nodiscard]] double write_cost(std::uint64_t bytes) const;
  [[nodiscard]] double metadata_cost() const;
  /// Pure bandwidth charge (no per-op latency), for stream appends.
  [[nodiscard]] double write_bandwidth_cost(std::uint64_t bytes) const;
  [[nodiscard]] double read_bandwidth_cost(std::uint64_t bytes) const;

  io::Env& base_;
  const ShapeSpec spec_;
  /// Nanosecond counters: atomics (several threads write through
  /// shaped envs concurrently) without losing precision to float
  /// accumulation order.
  mutable std::atomic<std::uint64_t> read_ns_{0};
  mutable std::atomic<std::uint64_t> write_ns_{0};
};

}  // namespace qnn::tier
