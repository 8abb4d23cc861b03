// Instrumented Env decorator: per-op counts, bytes and latency.
//
// ObservedEnv forwards the full handle contract to any base Env and
// records every operation into a MetricsRegistry under one of six
// operation classes, each with `<prefix>.<class>.ops`, `.bytes` (where
// bytes move) and `.latency_us` instruments:
//
//   append   one streamed append (bytes = payload)
//   sync     one durability push on a write handle
//   install  one kAtomic close — the all-or-nothing publish
//            (bytes = the whole installed stream)
//   pread    one ranged read (bytes = bytes actually returned, the same
//            quantity Env::bytes_read() charges)
//   remove   one file removal
//   meta     one metadata round trip (exists / file_size / list_dir)
//
// It is a pure decorator — mount it over any of the Envs (Posix, Mem,
// Fault, CrashSchedule, Prefix, Tiered, Shaped), or one per tier
// UNDER a TieredEnv to split hot-device from cold-device telemetry. The
// whole-buffer convenience calls are forwarded to the base explicitly
// (charged as install/pread), so bases whose whole-buffer methods carry
// extra semantics (TieredEnv's read-through promotion) keep them.
//
// Latencies are wall time (util::Timer): this decorator measures real
// device behaviour; deterministic modeled costs stay ShapedEnv's job.
#pragma once

#include <memory>
#include <string>

#include "io/env.hpp"
#include "obs/metrics.hpp"

namespace qnn::obs {

class ObservedEnv final : public io::ForwardingEnv {
 public:
  /// `metrics` is borrowed and must outlive the env (and any handle it
  /// opened). `prefix` namespaces the instruments — mount one env per
  /// tier with "io.hot" / "io.cold" prefixes to split device telemetry.
  ObservedEnv(io::Env& base, MetricsRegistry& metrics,
              std::string prefix = "io");

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override;
  std::unique_ptr<io::RandomAccessFile> open_ranged(
      const std::string& path) override;
  void write_file_atomic(const std::string& path, io::ByteSpan data) override;
  void write_file(const std::string& path, io::ByteSpan data) override;
  std::optional<io::Bytes> read_file(const std::string& path) override;
  bool exists(const std::string& path) override;
  void remove_file(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  std::optional<std::uint64_t> file_size(const std::string& path) override;

 private:
  friend class ObservedWritableFile;
  friend class ObservedRandomAccessFile;

  /// One operation class's instruments, resolved once at construction so
  /// the per-op path is pure relaxed-atomic recording.
  struct OpClass {
    Counter* ops = nullptr;
    Counter* bytes = nullptr;
    LatencyHistogram* latency = nullptr;
  };

  [[nodiscard]] OpClass make_class(MetricsRegistry& metrics,
                                   const std::string& name) const;
  /// Records one completed op: count, payload bytes, elapsed seconds.
  static void charge(const OpClass& c, std::uint64_t bytes, double seconds);

  const std::string prefix_;
  OpClass append_;
  OpClass sync_;
  OpClass install_;
  OpClass pread_;
  OpClass remove_;
  OpClass meta_;
};

}  // namespace qnn::obs
