// Two-tier storage Env: a fast hot tier backed by a capacity cold tier.
//
// TieredEnv composes two Envs behind the ordinary storage contract so
// every existing consumer (Checkpointer, ChunkStore, recovery, verify,
// the inspector) becomes tier-aware without code changes:
//
//   * writes (streamed or whole-buffer) land in the hot tier (new data
//     is hot by definition); a stale cold copy of the same path is
//     scrubbed after the stream closes, so an overwrite can never
//     resurrect old bytes through the cold tier;
//   * reads are served hot-first and fall through to the cold tier, so
//     an object is resolvable as long as EITHER tier holds it — the
//     invariant the migration engine's copy-before-delete discipline
//     preserves across crashes. Ranged reads fall through the same way,
//     and bytes served by the cold tier are counted per range — the
//     read-amplification signal of resolving a demoted object;
//   * removals hit both tiers; listings are the union.
//
// With `promote_on_read` a whole-file read satisfied by the cold tier
// also copies the object back to the hot tier (atomic write, then cold
// delete — the same durable-copy-before-source-dies order as demotion).
// Ranged reads never promote implicitly — paying a whole-file transfer
// for a footer pread would be exactly the read amplification this layer
// exists to kill; callers that decide an object is worth promoting call
// promote_file(), which streams the copy without materializing it.
// Promotion is best effort: a failed promotion write degrades to a
// plain cold read instead of failing it.
//
// Placement *policy* (what should be cold, when to demote it) lives in
// tier::MigrationEngine; this class is only the mechanism that makes
// both tiers look like one filesystem, and their listings are the only
// record of residency.
#pragma once

#include <atomic>
#include <functional>

#include "io/env.hpp"

namespace qnn::tier {

using util::Bytes;
using util::ByteSpan;

class TieredEnv final : public io::Env {
 public:
  /// `hot` and `cold` are borrowed and must outlive the TieredEnv.
  /// `scrub_filter`, when set, limits the post-write cold-copy scrub to
  /// paths it accepts: paths the migration policy can never demote
  /// (directory metadata like the MANIFEST, rewritten every install)
  /// then skip the cold tier entirely on the write path. Pass
  /// tier::migratable_path (tier/migration.hpp) for checkpoint
  /// directories; the empty default scrubs everything (always safe).
  TieredEnv(io::Env& hot, io::Env& cold, bool promote_on_read = false,
            std::function<bool(const std::string&)> scrub_filter = {});

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override;
  std::unique_ptr<io::RandomAccessFile> open_ranged(
      const std::string& path) override;
  std::optional<Bytes> read_file(const std::string& path) override;
  bool exists(const std::string& path) override;
  void remove_file(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  std::optional<std::uint64_t> file_size(const std::string& path) override;
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t bytes_read() const override {
    return bytes_read_;
  }

  /// Streaming promotion: copies a cold-resident file to the hot tier
  /// in bounded pieces (atomic hot install, then the cold copy dies —
  /// the usual crash order), without ever materializing the whole file
  /// in memory. Returns false when the file is not cold-resident or the
  /// hot install failed (the object then just stays cold). Counted in
  /// promoted_files()/promoted_bytes().
  bool promote_file(const std::string& path);

  /// Direct tier access (migration engine, diagnostics). Writing hot
  /// files through hot() bypasses the cold-copy scrub — callers own the
  /// residency bookkeeping.
  [[nodiscard]] io::Env& hot() { return hot_; }
  [[nodiscard]] io::Env& cold() { return cold_; }
  [[nodiscard]] bool promote_on_read() const { return promote_on_read_; }

  /// Reads that fell through to the cold tier (whole-file reads and
  /// ranged opens — the promotion-cost / recovery-latency signal),
  /// bytes they transferred, and read-through promotions performed.
  [[nodiscard]] std::uint64_t cold_reads() const { return cold_reads_; }
  [[nodiscard]] std::uint64_t cold_read_bytes() const {
    return cold_read_bytes_;
  }
  [[nodiscard]] std::uint64_t promoted_files() const {
    return promoted_files_;
  }
  [[nodiscard]] std::uint64_t promoted_bytes() const {
    return promoted_bytes_;
  }

 private:
  friend class TieredWritableFile;
  friend class ColdRandomAccessFile;

  io::Env& hot_;
  io::Env& cold_;
  const bool promote_on_read_;
  const std::function<bool(const std::string&)> scrub_filter_;
  /// Atomics: the async pipeline thread and the trainer thread drive a
  /// TieredEnv concurrently, exactly like the other Env counters.
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> cold_reads_{0};
  std::atomic<std::uint64_t> cold_read_bytes_{0};
  std::atomic<std::uint64_t> promoted_files_{0};
  std::atomic<std::uint64_t> promoted_bytes_{0};
};

}  // namespace qnn::tier
