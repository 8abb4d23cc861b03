// The checkpoint-directory manifest.
//
// A small, human-readable text file (`MANIFEST`) naming every installed
// checkpoint, its parent (for incremental chains), step and size. It is
// rewritten atomically after every install/retention event, so a crash
// leaves either the old or the new manifest — never a torn one. Recovery
// treats it as a hint: if it is missing or stale, the directory is
// rescanned and files speak for themselves.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "io/env.hpp"

namespace qnn::ckpt {

struct ManifestEntry {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = full checkpoint
  std::uint64_t step = 0;
  std::string file;             ///< file name within the checkpoint dir
  std::uint64_t bytes = 0;

  [[nodiscard]] bool is_incremental() const { return parent_id != 0; }
};

class Manifest {
 public:
  /// Loads `dir`/MANIFEST; returns an empty manifest when absent.
  /// Unparseable lines are skipped (forward compatibility + torn-line
  /// tolerance) but counted in parse_warnings() so recovery can surface
  /// that the manifest was damaged rather than silently thinning it.
  static Manifest load(io::Env& env, const std::string& dir);

  /// Non-empty, non-header lines the last load() could not parse (torn
  /// trailing line, media damage, unknown future record types).
  [[nodiscard]] std::size_t parse_warnings() const { return parse_warnings_; }

  /// Atomically rewrites `dir`/MANIFEST.
  void save(io::Env& env, const std::string& dir) const;

  /// Small named counters persisted with the manifest ("stat k=v"
  /// lines), surviving process restarts. Used for lifetime counters
  /// that would otherwise die with the process — e.g. the async
  /// writer's dropped-job count, which the inspector must be able to
  /// show post mortem precisely because the drop means no other trace
  /// of the checkpoint exists. Absent keys read as 0.
  [[nodiscard]] std::uint64_t stat(const std::string& key) const;
  void set_stat(const std::string& key, std::uint64_t value);
  [[nodiscard]] const std::map<std::string, std::uint64_t>& stats() const {
    return stats_;
  }

  /// Adds or replaces the entry with the same id, keeping entries sorted
  /// by id.
  void upsert(const ManifestEntry& entry);

  void remove(std::uint64_t id);

  [[nodiscard]] const std::vector<ManifestEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] const ManifestEntry* find(std::uint64_t id) const;
  [[nodiscard]] const ManifestEntry* latest() const;

  /// Highest id present, or 0 when empty.
  [[nodiscard]] std::uint64_t max_id() const;

 private:
  std::vector<ManifestEntry> entries_;  // sorted by id
  std::map<std::string, std::uint64_t> stats_;
  std::size_t parse_warnings_ = 0;
};

/// Inserts `id` and its ancestor chain into `ids`, walking parents until
/// a full checkpoint, an id already in `ids`, or a parent the manifest
/// does not list (a dangling chain, which recovery flags). The closure
/// both the retention planner keeps and the tier engine pins: a delta
/// needs everything it resolves through.
void insert_with_chain(const Manifest& manifest, std::uint64_t id,
                       std::set<std::uint64_t>& ids);

/// Canonical checkpoint file name for an id: "ckpt-0000000042.qckp".
std::string checkpoint_file_name(std::uint64_t id);

/// Parses an id back out of a checkpoint file name; nullopt when the name
/// does not match the canonical pattern.
std::optional<std::uint64_t> parse_checkpoint_file_name(
    const std::string& name);

}  // namespace qnn::ckpt
