// CheckpointStore: retention policies + crash-consistent garbage
// collection for a checkpoint directory.
//
// The store owns the question "which checkpoints may die, and in what
// order do their files disappear so that a crash at ANY point leaves the
// directory recoverable". Invariants collect() maintains across every
// crash point (exhaustively checked by crash_matrix_test):
//
//   * manifest-fence-before-delete: each deletion batch is preceded by an
//     atomic manifest rewrite that no longer advertises the batch, so the
//     manifest never names a missing file — every advertised entry
//     resolves;
//   * child-before-parent: victim files are deleted in descending id
//     order (a delta's parent is always an older id), so at no instant
//     does a delta file exist whose parent file is already gone — even a
//     manifest-less directory rescan never meets a stranded child;
//   * the newest installed checkpoint and its ancestor chain are never
//     victims, so a crash mid-GC loses nothing.
//
// A crash between fence and deletion merely strands unreferenced files;
// sweep_orphans() reaps them on the next startup.
//
// With format v3 the store also owns the directory's ChunkStore
// (ckpt/cas.hpp): deletion is no longer purely file-level but reference
// counted over chunk keys. Deleting a checkpoint file releases its key
// references; packfiles whose chunks are all unreferenced die in the
// same GC pass, and mixed packfiles are compacted by the startup sweep.
// Nothing persists the counts: the chunk store rebuilds them from the
// retained files when it opens. The file-level invariants above carry
// over unchanged; the chunk-level ones they induce are documented in
// cas.hpp.
//
// On a tier::TieredEnv the store additionally owns a MigrationEngine
// (tier/migration.hpp): after each GC pass, retained-but-old objects
// are demoted to the capacity tier under the TierPolicy's hot byte
// budget, with the same durable-copy-before-the-source-dies discipline
// — a crash mid-migration leaves every advertised object resolvable
// from at least one tier.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/cas.hpp"
#include "ckpt/manifest.hpp"
#include "io/env.hpp"
#include "tier/migration.hpp"

namespace qnn::ckpt {

/// What to keep. The retained set is always closed under parent chains
/// (keeping a delta keeps its ancestors) and always contains the newest
/// entry. Policies compose: the keep_last window is kept outright, older
/// entries survive only at step_spacing density, and byte_budget then
/// evicts oldest-first until the directory fits.
struct RetentionPolicy {
  /// Newest entries kept unconditionally. 0 = keep everything (the
  /// spacing and budget knobs below still apply).
  std::size_t keep_last = 3;

  /// Thin entries older than the keep_last window to at least this many
  /// steps apart (long-horizon history at bounded density). 0 = drop
  /// everything older than the window (the pre-store behaviour) unless
  /// the Young–Daly inputs below derive a spacing.
  std::uint64_t step_spacing = 0;

  /// Young–Daly-aware spacing: when step_spacing == 0 and all three are
  /// positive, spacing = sched::young_spacing_steps(ckpt_cost_seconds,
  /// mtbf_seconds, step_seconds) — history is thinned no denser than the
  /// optimal checkpoint cadence.
  double ckpt_cost_seconds = 0.0;
  double mtbf_seconds = 0.0;
  double step_seconds = 0.0;

  /// Total bytes of retained checkpoint files. 0 = unlimited. The newest
  /// entry and its chain are never evicted, even over budget (counted in
  /// GcStats::budget_violations instead).
  std::uint64_t byte_budget = 0;

  /// Victim files deleted per manifest fence. Smaller batches bound the
  /// orphaned bytes a crash can strand; larger batches amortise manifest
  /// rewrites.
  std::size_t gc_batch = 8;

  /// The spacing actually in force (step_spacing, or the Young–Daly
  /// derivation, or 0).
  [[nodiscard]] std::uint64_t effective_step_spacing() const;
};

/// Snapshot of the store's gc.* counters (bench_t5_gc, inspector,
/// tests).
struct GcStats {
  std::uint64_t runs = 0;               ///< collect() calls that found victims
  std::uint64_t files_deleted = 0;      ///< victim files removed
  std::uint64_t bytes_reclaimed = 0;    ///< sizes of removed victim files
  std::uint64_t manifest_rewrites = 0;  ///< fence rewrites performed
  std::uint64_t orphans_deleted = 0;    ///< unreferenced files swept
  std::uint64_t budget_violations = 0;  ///< byte_budget unmet after max evict
  std::uint64_t wals_reaped = 0;        ///< superseded delta journals removed
};

class CheckpointStore {
 public:
  /// When `env` is a tier::TieredEnv the store also owns a
  /// MigrationEngine driving `tier_policy` (hot/cold placement); on a
  /// flat Env the tier policy is inert. The store, its chunk store and
  /// its engine count into `metrics` (borrowed), or into a private
  /// registry when null.
  CheckpointStore(io::Env& env, std::string dir, RetentionPolicy policy,
                  tier::TierPolicy tier_policy = {},
                  obs::MetricsRegistry* metrics = nullptr);

  /// The ids that survive a GC run against `manifest` (planning only; no
  /// I/O). Sorted ascending; closed under parent chains.
  [[nodiscard]] std::vector<std::uint64_t> plan_retained(
      const Manifest& manifest) const;

  /// Crash-consistent GC: removes everything plan_retained() excludes,
  /// updating `manifest` (and its on-disk copy) batch by batch with the
  /// fence-then-delete ordering documented above. Returns the number of
  /// files deleted. With `save_manifest` the manifest is written even
  /// when there is nothing to delete — the installer passes true so its
  /// freshly-upserted entry is advertised by the first fence rewrite
  /// (one atomic manifest write per install, not two). The caller
  /// serialises collect() against concurrent installs (the Checkpointer
  /// holds its manifest lock).
  std::size_t collect(Manifest& manifest, bool save_manifest = false);

  /// The files sweep_orphans() would delete right now (planning only; no
  /// I/O beyond a directory listing): canonical checkpoint files absent
  /// from `manifest` and older than its newest entry — the leftovers of
  /// a crash between fence and deletion. Preserved even when
  /// unreferenced:
  ///   * files newer than the manifest tip (an install whose manifest
  ///     update a crash swallowed; id reallocation overwrites them),
  ///   * everything, when the manifest may not name garbage (see
  ///     may_name_garbage).
  /// Sorted descending (child-before-parent deletion order).
  [[nodiscard]] std::vector<std::string> plan_orphans(
      const Manifest& manifest) const;

  /// Deletes plan_orphans() (releasing their chunk references), then
  /// sweeps the chunk store: fully-dead packfiles are deleted and mixed
  /// ones compacted, so no unreferenced chunk survives the sweep. Call
  /// only when no install is in flight (e.g. at startup). Stale delta
  /// journals (plan_stale_wals) are reaped in the same pass.
  std::size_t sweep_orphans(const Manifest& manifest);

  /// Delta-journal files (wal-<epoch>.qwal, see ckpt/wal.hpp) whose
  /// epoch `manifest` no longer advertises — logs a rotation or GC
  /// superseded but a crash kept on disk. The active log (its epoch IS
  /// an advertised entry) is pinned by definition. Empty, as
  /// plan_orphans is, when the manifest may not name garbage: one that
  /// lost lines may have lost the active journal's epoch.
  [[nodiscard]] std::vector<std::string> plan_stale_wals(
      const Manifest& manifest) const;

  /// The directory's content-addressed chunk store (format v3 chunks).
  [[nodiscard]] ChunkStore& chunks() { return chunks_; }
  [[nodiscard]] const ChunkStore& chunks() const { return chunks_; }

  /// Hot/cold migration per the tier policy: demotes old checkpoint
  /// containers and fully-cold packfiles until the hot tier fits its
  /// byte budget (copy to cold + fsync, then the hot copy dies). No-op
  /// on a flat Env or a disabled policy. Runs after collect() on the
  /// install path, under the same serialisation.
  std::size_t migrate(const Manifest& manifest);

  /// The migration engine, or nullptr on a flat (non-tiered) Env.
  [[nodiscard]] tier::MigrationEngine* tiering() { return tiering_.get(); }
  /// Migration counters (zeros on a flat Env).
  [[nodiscard]] tier::TierStats tier_stats() {
    return tiering_ ? tiering_->stats() : tier::TierStats{};
  }

  [[nodiscard]] GcStats stats() const;
  [[nodiscard]] const RetentionPolicy& policy() const { return policy_; }

  /// Mounts a span/event sink (borrowed; null detaches) on the store and
  /// its migration engine. The parts of an install's tail become spans:
  /// manifest.save, gc.collect (a GC pass that deletes files), cas.sweep
  /// and, on a tiered Env, tier.migrate; the engine traces its
  /// demotions.
  void set_observability(obs::Tracer* tracer) {
    tracer_ = tracer;
    if (tiering_) {
      tiering_->set_observability(tracer);
    }
  }

 private:
  /// Whether `manifest` may decide what is garbage: it has entries,
  /// parsed without warnings, and no parent link dangles. The one trust
  /// rule plan_orphans and plan_stale_wals share.
  [[nodiscard]] static bool may_name_garbage(const Manifest& manifest);

  /// Size of entry `id`'s file: the manifest's recorded bytes, or the
  /// on-disk size when the manifest predates byte accounting.
  [[nodiscard]] std::uint64_t stored_bytes(const Manifest& manifest,
                                           std::uint64_t id) const;

  /// Chunk keys referenced by the checkpoint file `name`, read from disk
  /// BEFORE the file dies so the references can be released afterwards.
  /// Empty (and harmlessly leak-biased) when the file cannot be read.
  [[nodiscard]] std::vector<ChunkKey> read_chunk_refs(
      const std::string& name) const;

  /// manifest.save(), as a manifest.save span.
  void write_manifest(const Manifest& manifest);
  /// The chunk store's sweep, as a cas.sweep span; its bytes count as
  /// reclaimed.
  void sweep_chunks(bool compact);

  io::Env& env_;
  std::string dir_;
  RetentionPolicy policy_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  ///< when none passed
  obs::MetricsRegistry& metrics_;
  ChunkStore chunks_;
  /// Non-null iff env_ is a TieredEnv: hot/cold placement + migration.
  std::unique_ptr<tier::MigrationEngine> tiering_;

  // The gc.* counters (see GcStats).
  obs::CounterShare runs_;
  obs::CounterShare files_deleted_;
  obs::CounterShare bytes_reclaimed_;
  obs::CounterShare manifest_rewrites_;
  obs::CounterShare orphans_deleted_;
  obs::CounterShare budget_violations_;
  obs::CounterShare wals_reaped_;
  obs::Tracer* tracer_ = nullptr;  ///< borrowed; null = tracing off
};

}  // namespace qnn::ckpt
