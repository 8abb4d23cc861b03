// Offline checkpoint-directory verification (scrubbing).
//
// Periodic scrubs catch silent corruption *before* a crash makes the
// checkpoint load-bearing. verify_directory() cross-checks the manifest
// against the files on disk, CRC-verifies every checkpoint, resolves
// every incremental chain, and reports exactly what a recovery attempted
// right now could and could not use.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "io/env.hpp"

namespace qnn::ckpt {

enum class CheckpointHealth {
  kIntact,       ///< parses, all CRCs good, chain resolves
  kDamaged,      ///< file exists but fails verification
  kChainBroken,  ///< file itself is fine but an ancestor is not
  kMissing,      ///< manifest references it; no file on disk
};

std::string health_name(CheckpointHealth health);

struct CheckpointReport {
  std::uint64_t id = 0;
  std::string file;
  std::uint64_t step = 0;
  CheckpointHealth health = CheckpointHealth::kMissing;
  /// Which tier holds the file when scrubbing a tier::TieredEnv:
  /// "hot", "cold", or "hot+cold" (a crash-stranded duplicate the next
  /// startup reconcile collapses). Empty on a flat Env.
  std::string tier;
  std::vector<std::string> notes;
};

/// One delta journal (wal-<epoch>.qwal, see ckpt/wal.hpp) found on disk.
struct WalReport {
  std::string file;
  std::uint64_t epoch = 0;
  /// Header parsed (magic/version/epoch/crc). False = the log is torn
  /// before its first record; replay treats it as absent.
  bool readable = false;
  /// The epoch is an advertised manifest entry (the log is the active
  /// one and pinned); false = stale, reaped by the next GC/sweep.
  bool epoch_advertised = false;
  std::uint64_t records = 0;    ///< fully-framed records
  std::uint64_t last_step = 0;  ///< step replay would reach
  std::uint64_t torn_bytes = 0; ///< ignored tail past the last valid frame
};

struct DirectoryReport {
  bool manifest_present = false;
  std::vector<CheckpointReport> checkpoints;  ///< sorted by id
  /// Checkpoint-named files on disk that the manifest does not list
  /// (e.g. survivors of a crash between install and manifest update).
  std::vector<std::string> orphan_files;
  /// Delta journals on disk, sorted by epoch. Advisory: a torn tail is
  /// the expected post-crash shape, so journals never affect healthy().
  std::vector<WalReport> journals;
  /// The id recovery would return right now, if any.
  std::optional<std::uint64_t> newest_recoverable;

  /// True when the newest manifest entry is intact and nothing is
  /// missing or damaged.
  [[nodiscard]] bool healthy() const;

  /// Multi-line human-readable rendering (inspector output).
  [[nodiscard]] std::string summary() const;
};

/// Scrubs `dir` (read-only; never modifies anything). On a
/// tier::TieredEnv it reads through a non-promoting TieredEnv over the
/// same hot() and cold(), whatever the caller's promote_on_read, since
/// the chain walk and the chunk store promote what they read through a
/// promoting one: no object changes tier, and the reads count on that
/// view and on the tiers' own Envs, not on the caller's TieredEnv.
DirectoryReport verify_directory(io::Env& target, const std::string& dir);

}  // namespace qnn::ckpt
