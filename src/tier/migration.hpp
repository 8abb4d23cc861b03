// Tier placement policy + crash-consistent hot->cold migration.
//
// The MigrationEngine owns WHICH objects of a checkpoint directory live
// in which tier of a TieredEnv, and moves them with the same crash
// discipline the retention GC uses for deletion. The migratable objects
// are exactly the immutable bulk payloads — checkpoint containers
// (ckpt-*.qckp) and chunk packfiles (chunks/pack-*.qpak); directory
// metadata (MANIFEST) is pinned hot forever.
//
// Residency is the two tiers' own listings; nothing records it a
// second time. Crash safety rests on three facts:
//
//   * demotion copies each object to the cold tier (atomic write,
//     fsynced by the cold Env) BEFORE its hot copy dies, so a crash at
//     any point leaves every object resolvable from at least one tier,
//     at worst transiently duplicated;
//   * TieredEnv reads fall through both tiers (an object comes back hot
//     only through its read-through promotion);
//   * reconcile() (startup) collapses crash-stranded duplicates — the
//     hot copy always wins, because every write path targets the hot
//     tier, so a diverging cold copy can only be stale.
//
// Placement policy (TierPolicy):
//   * hot_byte_budget caps the bytes of migratable objects resident in
//     the hot tier; demotion runs only while over budget;
//   * the newest pin_hot_last checkpoints and their ancestor chains
//     stay hot regardless;
//   * victims are planned oldest-first in chain units — an incremental
//     parent chain is planned whole, and a packfile (one file) is
//     inherently unsplittable;
//   * a packfile demotes only when it is fully cold: no hot-resident
//     checkpoint references any of its chunks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tier/tiered_env.hpp"

namespace qnn::ckpt {
class Manifest;
}  // namespace qnn::ckpt

namespace qnn::tier {

struct TierPolicy {
  /// Byte cap for migratable objects (checkpoint files + packfiles)
  /// resident in the hot tier. 0 = unlimited: demotion never runs.
  std::uint64_t hot_byte_budget = 0;

  /// Newest checkpoints (and their ancestor chains) never demoted, so
  /// the recovery fast path stays a pure hot hit. Clamped to >= 1: the
  /// newest checkpoint is always pinned.
  std::size_t pin_hot_last = 2;

  [[nodiscard]] bool enabled() const { return hot_byte_budget > 0; }
};

/// True for paths whose final component names an object migration may
/// ever place in the cold tier (checkpoint containers, packfiles).
/// Useful as a TieredEnv scrub filter: writes to anything else —
/// MANIFEST, foreign files — skip the cold tier entirely.
bool migratable_path(const std::string& path);

/// Snapshot of the engine's tier.* instruments (bench_t7_tiering,
/// inspector, tests): hot_bytes and cold_bytes are the engine's own
/// levels, the rest its counters.
struct TierStats {
  std::uint64_t demote_runs = 0;       ///< migrate() calls that moved data
  std::uint64_t files_demoted = 0;
  std::uint64_t bytes_demoted = 0;
  std::uint64_t duplicates_collapsed = 0;  ///< crash-stranded copies fixed
  std::uint64_t budget_misses = 0;     ///< over budget, nothing demotable
  std::uint64_t hot_bytes = 0;         ///< migratable hot bytes, last run
  /// Migratable cold bytes: exact at reconcile, then maintained
  /// incrementally from the engine's own moves (no capacity-tier
  /// enumeration on the install path); may drift when GC deletes cold
  /// victims until the next reconcile.
  std::uint64_t cold_bytes = 0;
};

class MigrationEngine {
 public:
  /// One demotion unit: files planned as a whole (a chain segment, or
  /// one packfile).
  struct Unit {
    std::vector<std::string> files;  ///< dir-relative names
    std::uint64_t bytes = 0;         ///< hot bytes the unit frees
  };

  /// `env` is borrowed and must outlive the engine; `dir` is the
  /// checkpoint directory both tiers share. Counts into `metrics`
  /// (borrowed), or a private registry when null.
  MigrationEngine(TieredEnv& env, std::string dir, TierPolicy policy,
                  obs::MetricsRegistry* metrics = nullptr);

  /// The units a demotion run would move right now (planning only; no
  /// tier mutation): oldest-first until the hot tier fits the budget,
  /// plus every packfile left fully cold by those moves. Reads only
  /// hot-resident files (key tables + pack headers) — planning never
  /// touches the capacity tier. Empty when the policy is disabled or
  /// the hot tier already fits.
  [[nodiscard]] std::vector<Unit> plan_demotions(
      const ckpt::Manifest& manifest);

  /// Executes a demotion plan: each object is copied to the cold tier,
  /// then its hot copy dies (see above). Returns files demoted.
  std::size_t demote(const std::vector<Unit>& units);

  /// plan + demote in one call (what CheckpointStore runs per install).
  std::size_t migrate(const ckpt::Manifest& manifest);

  /// Startup reconciliation: collapses duplicates stranded by a crash
  /// mid-migration (hot copy wins) and removes the residency file
  /// (`TIERMAP`) earlier versions kept in the hot tier, when the hot
  /// listing names one. Returns duplicates collapsed.
  std::size_t reconcile();

  /// Migratable bytes (checkpoint files + packfiles) resident per tier
  /// right now, by listing. Metadata files are not counted — they are
  /// pinned hot and not subject to the budget.
  [[nodiscard]] std::uint64_t hot_resident_bytes();
  [[nodiscard]] std::uint64_t cold_resident_bytes();

  /// Dir-relative names of the migratable files the cold tier lists.
  [[nodiscard]] std::vector<std::string> cold_files();

  [[nodiscard]] TierStats stats() const;
  [[nodiscard]] const TierPolicy& policy() const { return policy_; }
  [[nodiscard]] TieredEnv& env() { return env_; }

  /// Mounts a span/event sink (borrowed; null detaches): demote runs
  /// become spans.
  void set_observability(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// Sizes of the migratable files under `tier_env`'s view of dir_.
  std::uint64_t resident_bytes(io::Env& tier_env);

  TieredEnv& env_;
  const std::string dir_;
  const TierPolicy policy_;

  std::mutex mu_;
  /// Parsed key tables / pack record keys of hot files, so repeated
  /// over-budget planning runs don't re-read the whole hot tier.
  /// Contents are write-once, so the byte size validates an entry; a
  /// stale hit after a same-size crash-reallocation overwrite can only
  /// mis-place (never lose) an object, since reads span both tiers.
  struct CachedKeys {
    std::uint64_t bytes = 0;
    std::vector<ckpt::ChunkKey> keys;
  };
  std::map<std::string, CachedKeys> key_cache_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  ///< when none passed
  obs::MetricsRegistry& metrics_;
  // The tier.* instruments (see TierStats), changed under mu_.
  obs::CounterShare demote_runs_;
  obs::CounterShare files_demoted_;
  obs::CounterShare bytes_demoted_;
  obs::CounterShare duplicates_collapsed_;
  obs::CounterShare budget_misses_;
  obs::GaugeShare hot_bytes_;
  obs::GaugeShare cold_bytes_;
  obs::Tracer* tracer_ = nullptr;  ///< borrowed; null = tracing off
};

}  // namespace qnn::tier
