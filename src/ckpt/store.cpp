#include "ckpt/store.hpp"

#include <algorithm>
#include <set>

#include "ckpt/wal.hpp"
#include "sched/young_daly.hpp"

namespace qnn::ckpt {

std::uint64_t RetentionPolicy::effective_step_spacing() const {
  if (step_spacing > 0) {
    return step_spacing;
  }
  return sched::young_spacing_steps(ckpt_cost_seconds, mtbf_seconds,
                                    step_seconds);
}

CheckpointStore::CheckpointStore(io::Env& env, std::string dir,
                                 RetentionPolicy policy,
                                 tier::TierPolicy tier_policy,
                                 obs::MetricsRegistry* metrics)
    : env_(env),
      dir_(std::move(dir)),
      policy_(policy),
      metrics_(obs::shared_or_own(metrics, own_metrics_)),
      chunks_(env_, dir_, &metrics_),
      runs_(metrics_.counter("gc.runs")),
      files_deleted_(metrics_.counter("gc.files_deleted")),
      bytes_reclaimed_(metrics_.counter("gc.bytes_reclaimed")),
      manifest_rewrites_(metrics_.counter("gc.manifest_rewrites")),
      orphans_deleted_(metrics_.counter("gc.orphans_deleted")),
      budget_violations_(metrics_.counter("gc.budget_violations")),
      wals_reaped_(metrics_.counter("gc.wals_reaped")) {
  // The engine exists whenever the env is tiered (startup reconcile is
  // wanted even with demotion disabled); the policy decides whether
  // migrate() ever moves anything.
  if (auto* tiered = dynamic_cast<tier::TieredEnv*>(&env_)) {
    tiering_ = std::make_unique<tier::MigrationEngine>(*tiered, dir_,
                                                       tier_policy, &metrics_);
  }
}

std::size_t CheckpointStore::migrate(const Manifest& manifest) {
  if (!tiering_) {
    return 0;
  }
  obs::Span span(tracer_, "tier.migrate", "tier");
  return tiering_->migrate(manifest);
}

void CheckpointStore::write_manifest(const Manifest& manifest) {
  obs::Span span(tracer_, "manifest.save", "ckpt");
  manifest.save(env_, dir_);
}

void CheckpointStore::sweep_chunks(bool compact) {
  obs::Span span(tracer_, "cas.sweep", "gc");
  const std::uint64_t reclaimed = chunks_.sweep(compact);
  span.note("bytes", reclaimed);
  bytes_reclaimed_.add(reclaimed);
}

std::vector<ChunkKey> CheckpointStore::read_chunk_refs(
    const std::string& name) const {
  try {
    // Ranged read: headers + extern key tables only (each table CRC-
    // verified), so releasing a victim's references costs kilobytes of
    // I/O regardless of the victim's size. The weaker-than-CRC64 trust
    // is safe HERE because any inconsistency throws and releases
    // nothing — the bias is towards leaking (chunks stay until a
    // future sweep can prove liveness), never towards freeing
    // something still referenced.
    return list_chunk_refs(env_, dir_ + "/" + name);
  } catch (const std::exception&) {
    return {};
  }
}

namespace {

/// True when `id`'s ancestor chain (exclusive) passes through `through`.
bool chain_passes_through(const Manifest& manifest, std::uint64_t id,
                          std::uint64_t through) {
  const ManifestEntry* e = manifest.find(id);
  std::size_t hops = 0;
  while (e != nullptr && e->parent_id != 0 &&
         hops++ < manifest.entries().size()) {
    if (e->parent_id == through) {
      return true;
    }
    e = manifest.find(e->parent_id);
  }
  return false;
}

}  // namespace

std::uint64_t CheckpointStore::stored_bytes(const Manifest& manifest,
                                            std::uint64_t id) const {
  const ManifestEntry* e = manifest.find(id);
  if (e != nullptr && e->bytes > 0) {
    return e->bytes;
  }
  const std::string file = e != nullptr ? e->file : checkpoint_file_name(id);
  return env_.file_size(dir_ + "/" + file).value_or(0);
}

std::vector<std::uint64_t> CheckpointStore::plan_retained(
    const Manifest& manifest) const {
  const auto& entries = manifest.entries();
  if (entries.empty()) {
    return {};
  }
  std::set<std::uint64_t> keep;

  // 1. The keep_last window (everything when keep_last == 0), chains
  //    included.
  const std::size_t n = entries.size();
  const std::size_t window_first =
      (policy_.keep_last == 0 || n <= policy_.keep_last)
          ? 0
          : n - policy_.keep_last;
  for (std::size_t i = window_first; i < n; ++i) {
    insert_with_chain(manifest, entries[i].id, keep);
  }

  // 2. Spaced long-horizon history older than the window: oldest first,
  //    keeping an entry only when it advances the step clock by at least
  //    the spacing.
  const std::uint64_t spacing = policy_.effective_step_spacing();
  if (spacing > 0) {
    std::uint64_t last_kept_step = 0;
    bool have_anchor = false;
    for (std::size_t i = 0; i < window_first; ++i) {
      if (!have_anchor || entries[i].step >= last_kept_step + spacing) {
        insert_with_chain(manifest, entries[i].id, keep);
        last_kept_step = entries[i].step;
        have_anchor = true;
      }
    }
  }

  // 3. Byte budget: evict oldest-first until the retained files fit.
  //    Evicting an entry also evicts every kept entry whose chain passes
  //    through it (the set stays chain-closed). Only the newest entry and
  //    its chain are sacrosanct.
  if (policy_.byte_budget > 0) {
    std::set<std::uint64_t> sacrosanct;
    insert_with_chain(manifest, entries.back().id, sacrosanct);

    std::uint64_t total = 0;
    for (const std::uint64_t id : keep) {
      total += stored_bytes(manifest, id);
    }
    while (total > policy_.byte_budget) {
      std::uint64_t victim = 0;
      bool found = false;
      for (const std::uint64_t id : keep) {  // ascending: oldest first
        if (!sacrosanct.contains(id)) {
          victim = id;
          found = true;
          break;
        }
      }
      if (!found) {
        break;  // only the newest chain is left; collect() records this
      }
      std::vector<std::uint64_t> evicted{victim};
      for (const std::uint64_t id : keep) {
        if (id > victim && chain_passes_through(manifest, id, victim)) {
          evicted.push_back(id);
        }
      }
      for (const std::uint64_t id : evicted) {
        total -= std::min(total, stored_bytes(manifest, id));
        keep.erase(id);
      }
    }
  }

  return {keep.begin(), keep.end()};
}

std::size_t CheckpointStore::collect(Manifest& manifest,
                                     bool save_manifest) {
  const auto retained = plan_retained(manifest);

  if (policy_.byte_budget > 0) {
    std::uint64_t total = 0;
    for (const std::uint64_t id : retained) {
      total += stored_bytes(manifest, id);
    }
    if (total > policy_.byte_budget) {
      budget_violations_.add();
    }
  }

  std::vector<ManifestEntry> victims;
  for (const ManifestEntry& e : manifest.entries()) {
    if (!std::binary_search(retained.begin(), retained.end(), e.id)) {
      victims.push_back(e);
    }
  }
  if (victims.empty()) {
    if (save_manifest) {
      write_manifest(manifest);
    }
    return 0;
  }
  runs_.add();
  obs::Span gc_span(tracer_, "gc.collect", "gc");
  gc_span.note("victims", static_cast<std::uint64_t>(victims.size()));

  // Chunk accounting only exists where packfiles do; and when it does,
  // the refcount baseline MUST be loaded while every victim's file is
  // still on disk — releasing against a post-deletion rebuild would
  // double-free chunks the victims share with survivors.
  const bool cas_active = chunks_.has_packfiles();
  if (cas_active) {
    chunks_.open();
  }

  // Children (higher ids) strictly before parents, across batches too.
  std::sort(victims.begin(), victims.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.id > b.id;
            });

  std::size_t deleted = 0;
  const std::size_t batch = std::max<std::size_t>(1, policy_.gc_batch);
  for (std::size_t begin = 0; begin < victims.size(); begin += batch) {
    const std::size_t end = std::min(begin + batch, victims.size());
    // Fence: stop advertising this batch before any of its files die. A
    // crash right here strands orphan files, never dead manifest entries.
    for (std::size_t i = begin; i < end; ++i) {
      manifest.remove(victims[i].id);
    }
    write_manifest(manifest);
    manifest_rewrites_.add();
    for (std::size_t i = begin; i < end; ++i) {
      const ManifestEntry& e = victims[i];
      const std::uint64_t bytes =
          e.bytes > 0 ? e.bytes
                      : env_.file_size(dir_ + "/" + e.file).value_or(0);
      // Read the victim's chunk references while the file still exists;
      // only a durably deleted file gives its references back. With no
      // packfiles there is nothing to account, so victims are not even
      // read (a directory of inline checkpoints keeps its file-level GC
      // cost).
      const auto refs =
          cas_active ? read_chunk_refs(e.file) : std::vector<ChunkKey>{};
      env_.remove_file(dir_ + "/" + e.file);
      chunks_.release(refs);
      ++deleted;
      files_deleted_.add();
      bytes_reclaimed_.add(bytes);
    }
  }
  // Delta journals of the epochs that just died are garbage too: every
  // fence above already stopped advertising their epochs, so the reap
  // runs strictly behind it (the rotation on the install path removes
  // the directly-superseded log; this catches GC'd and crash-stranded
  // ones).
  for (const std::string& name : plan_stale_wals(manifest)) {
    env_.remove_file(dir_ + "/" + name);
    wals_reaped_.add();
  }
  // Chunk-level GC rides the same pass: packfiles whose every record
  // just became unreferenced die here (compaction of mixed packfiles is
  // deferred to the startup sweep).
  sweep_chunks(/*compact=*/false);
  gc_span.note("deleted", static_cast<std::uint64_t>(deleted));
  return deleted;
}

bool CheckpointStore::may_name_garbage(const Manifest& manifest) {
  if (manifest.entries().empty()) {
    // No manifest entries: the files ARE the only metadata (recovery
    // rescans the directory); nothing is provably garbage.
    return false;
  }
  if (manifest.parse_warnings() > 0) {
    // Lines were lost to damage; an entry whose chain passes through a
    // lost line still needs that parent's FILE even though the manifest
    // no longer names it, and the lost line may be the active journal's
    // epoch. Deleting anything here turns recoverable manifest damage
    // into permanent data loss.
    return false;
  }
  // Same reasoning for damage load() cannot detect (lines lost cleanly
  // by an external edit or copy truncated at a line boundary): the
  // install/GC fences keep a healthy manifest chain-closed, so ANY
  // dangling parent link means the manifest is not trustworthy enough
  // to name garbage — and the missing parent's own ancestors, known
  // only to the file headers, cannot be shielded from here.
  for (const ManifestEntry& e : manifest.entries()) {
    if (e.parent_id != 0 && manifest.find(e.parent_id) == nullptr) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> CheckpointStore::plan_orphans(
    const Manifest& manifest) const {
  if (!may_name_garbage(manifest)) {
    return {};
  }
  const std::uint64_t tip = manifest.max_id();
  std::vector<std::pair<std::uint64_t, std::string>> orphans;
  for (const std::string& name : env_.list_dir(dir_)) {
    if (const auto id = parse_checkpoint_file_name(name)) {
      if (*id < tip && manifest.find(*id) == nullptr) {
        orphans.emplace_back(*id, name);
      }
    }
  }
  // Child-before-parent here too: a crash mid-sweep must not leave a
  // delta file whose parent file the sweep already removed.
  std::sort(orphans.begin(), orphans.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> names;
  names.reserve(orphans.size());
  for (auto& [id, name] : orphans) {
    names.push_back(std::move(name));
  }
  return names;
}

std::vector<std::string> CheckpointStore::plan_stale_wals(
    const Manifest& manifest) const {
  if (!may_name_garbage(manifest)) {
    return {};
  }
  std::vector<std::string> stale;
  for (const std::string& name : env_.list_dir(dir_)) {
    if (const auto epoch = parse_wal_file_name(name)) {
      if (manifest.find(*epoch) == nullptr) {
        stale.push_back(name);
      }
    }
  }
  return stale;
}

std::size_t CheckpointStore::sweep_orphans(const Manifest& manifest) {
  // Tier reconciliation runs first (nothing is in flight at startup):
  // duplicates a crash stranded mid-migration collapse to the hot copy,
  // so every listing the sweep takes below sees exactly one physical
  // copy per object.
  if (tiering_) {
    tiering_->reconcile();
  }
  // Same discipline as collect(): load the refcount baseline BEFORE the
  // first orphan dies, or releasing an orphan's references would punch
  // holes in counts rebuilt from the already-thinned directory.
  const bool cas_active = chunks_.has_packfiles();
  if (cas_active) {
    chunks_.open();
  }
  std::size_t deleted = 0;
  for (const std::string& name : plan_orphans(manifest)) {
    const std::uint64_t bytes =
        env_.file_size(dir_ + "/" + name).value_or(0);
    const auto refs =
        cas_active ? read_chunk_refs(name) : std::vector<ChunkKey>{};
    env_.remove_file(dir_ + "/" + name);
    chunks_.release(refs);
    ++deleted;
    orphans_deleted_.add();
    bytes_reclaimed_.add(bytes);
  }
  // Stale delta journals: logs whose epoch the manifest no longer
  // advertises (their base install was GC'd or the post-install remove
  // was lost to a crash). The active log — an advertised epoch — is
  // pinned and untouched.
  for (const std::string& name : plan_stale_wals(manifest)) {
    env_.remove_file(dir_ + "/" + name);
    ++deleted;
    wals_reaped_.add();
  }
  // Startup is the full chunk sweep: no batch is in flight, so
  // fully-dead packfiles are deleted AND mixed ones are compacted —
  // after this call no unreferenced chunk remains on disk (unless some
  // checkpoint file was unreadable, in which case the store refuses to
  // sweep at all: liveness would be guesswork).
  sweep_chunks(/*compact=*/true);
  return deleted;
}

GcStats CheckpointStore::stats() const {
  return {.runs = runs_.value(),
          .files_deleted = files_deleted_.value(),
          .bytes_reclaimed = bytes_reclaimed_.value(),
          .manifest_rewrites = manifest_rewrites_.value(),
          .orphans_deleted = orphans_deleted_.value(),
          .budget_violations = budget_violations_.value(),
          .wals_reaped = wals_reaped_.value()};
}

}  // namespace qnn::ckpt
