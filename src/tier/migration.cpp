#include "tier/migration.hpp"

#include <algorithm>
#include <set>

#include "ckpt/cas.hpp"
#include "ckpt/format.hpp"
#include "ckpt/manifest.hpp"

namespace qnn::tier {

namespace {

/// The residency file earlier versions rewrote in the hot tier on every
/// demotion; reconcile() removes one left behind.
constexpr const char* kLegacyTiermap = "TIERMAP";

/// The migratable dir-relative names present in `tier_env`'s view, given
/// its listing `top` of `dir` itself.
std::vector<std::string> migratable_files(io::Env& tier_env,
                                          const std::string& dir,
                                          const std::vector<std::string>& top) {
  std::vector<std::string> out;
  for (const std::string& name : top) {
    if (ckpt::parse_checkpoint_file_name(name)) {
      out.push_back(name);
    }
  }
  for (const std::string& name : tier_env.list_dir(dir + "/chunks")) {
    if (ckpt::parse_pack_file_name(name)) {
      out.push_back("chunks/" + name);
    }
  }
  return out;
}

std::vector<std::string> migratable_files(io::Env& tier_env,
                                          const std::string& dir) {
  return migratable_files(tier_env, dir, tier_env.list_dir(dir));
}

}  // namespace

bool migratable_path(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return ckpt::parse_checkpoint_file_name(base).has_value() ||
         ckpt::parse_pack_file_name(base).has_value();
}

MigrationEngine::MigrationEngine(TieredEnv& env, std::string dir,
                                 TierPolicy policy,
                                 obs::MetricsRegistry* metrics)
    : env_(env),
      dir_(std::move(dir)),
      policy_(policy),
      metrics_(obs::shared_or_own(metrics, own_metrics_)),
      demote_runs_(metrics_.counter("tier.demote_runs")),
      files_demoted_(metrics_.counter("tier.files_demoted")),
      bytes_demoted_(metrics_.counter("tier.bytes_demoted")),
      duplicates_collapsed_(metrics_.counter("tier.duplicates_collapsed")),
      budget_misses_(metrics_.counter("tier.budget_misses")),
      hot_bytes_(metrics_.gauge("tier.hot_bytes")),
      cold_bytes_(metrics_.gauge("tier.cold_bytes")) {}

std::uint64_t MigrationEngine::resident_bytes(io::Env& tier_env) {
  std::uint64_t total = 0;
  for (const std::string& name : migratable_files(tier_env, dir_)) {
    total += tier_env.file_size(dir_ + "/" + name).value_or(0);
  }
  return total;
}

std::uint64_t MigrationEngine::hot_resident_bytes() {
  return resident_bytes(env_.hot());
}

std::uint64_t MigrationEngine::cold_resident_bytes() {
  return resident_bytes(env_.cold());
}

std::vector<MigrationEngine::Unit> MigrationEngine::plan_demotions(
    const ckpt::Manifest& manifest) {
  if (!policy_.enabled()) {
    return {};
  }
  std::lock_guard lock(mu_);

  const std::uint64_t hot_bytes = resident_bytes(env_.hot());
  hot_bytes_.set(hot_bytes);
  if (hot_bytes <= policy_.hot_byte_budget) {
    return {};
  }

  const auto& entries = manifest.entries();
  if (entries.empty()) {
    return {};
  }

  // Pinned: the newest pin_hot_last entries (at least the newest one)
  // and their chains.
  std::set<std::uint64_t> pinned;
  const std::size_t n = entries.size();
  const std::size_t window = std::max<std::size_t>(1, policy_.pin_hot_last);
  for (std::size_t i = n > window ? n - window : 0; i < n; ++i) {
    ckpt::insert_with_chain(manifest, entries[i].id, pinned);
  }

  // Candidates: entries outside the pinned set whose file is hot now.
  std::set<std::uint64_t> candidates;
  for (const ckpt::ManifestEntry& e : entries) {
    if (!pinned.contains(e.id) &&
        env_.hot().exists(dir_ + "/" + e.file)) {
      candidates.insert(e.id);
    }
  }

  // Group candidates into chain units (union-find over parent links):
  // a parent chain is planned whole.
  std::map<std::uint64_t, std::uint64_t> uf;
  for (const std::uint64_t id : candidates) {
    uf[id] = id;
  }
  const auto find_root = [&uf](std::uint64_t x) {
    while (uf[x] != x) {
      uf[x] = uf[uf[x]];
      x = uf[x];
    }
    return x;
  };
  for (const std::uint64_t id : candidates) {
    const ckpt::ManifestEntry* e = manifest.find(id);
    if (e != nullptr && e->parent_id != 0 &&
        candidates.contains(e->parent_id)) {
      uf[find_root(id)] = find_root(e->parent_id);
    }
  }
  // Units keyed by the component's smallest id, so demotion order is
  // deterministically oldest-chain-first (candidates iterate ascending,
  // making the first id seen per root the minimum).
  std::map<std::uint64_t, std::uint64_t> unit_key;  // root -> min id
  std::map<std::uint64_t, Unit> units;              // min id -> unit
  for (const std::uint64_t id : candidates) {
    const std::uint64_t root = find_root(id);
    const auto it = unit_key.try_emplace(root, id).first;
    const ckpt::ManifestEntry* e = manifest.find(id);
    const std::string file =
        e != nullptr ? e->file : ckpt::checkpoint_file_name(id);
    Unit& unit = units[it->second];
    unit.files.push_back(file);
    unit.bytes += env_.hot().file_size(dir_ + "/" + file).value_or(0);
  }

  // Reference counts of chunk keys held by HOT checkpoint files: the
  // pack-demotion predicate ("fully cold") and its projection as
  // checkpoint units leave the hot tier. Unreadable references make
  // pack liveness unknowable — packs then stay put this run. All of
  // this reads hot files only (key tables and pack record headers, via
  // list_chunk_refs / list_pack_keys), and the parses are cached by
  // (name, size), so the steady over-budget state re-reads nothing —
  // planning costs a listing plus file_size probes, not the hot tier's
  // bytes, and never a cold op.
  std::map<ckpt::ChunkKey, std::uint64_t> hot_keys;
  std::map<std::string, const std::vector<ckpt::ChunkKey>*> refs_by_file;
  /// rel name -> (record keys, hot bytes) of hot-resident packs.
  std::map<std::string, std::pair<const std::vector<ckpt::ChunkKey>*,
                                  std::uint64_t>>
      hot_packs;
  bool refs_known = true;
  const auto hot_files = migratable_files(env_.hot(), dir_);
  const std::set<std::string> hot_set(hot_files.begin(), hot_files.end());
  for (auto it = key_cache_.begin(); it != key_cache_.end();) {
    // Files no longer hot (demoted, GC'd) leave the cache.
    it = hot_set.contains(it->first) ? std::next(it) : key_cache_.erase(it);
  }
  for (const std::string& name : hot_files) {
    const std::string path = dir_ + "/" + name;
    const std::uint64_t size = env_.hot().file_size(path).value_or(0);
    auto cached = key_cache_.find(name);
    if (cached == key_cache_.end() || cached->second.bytes != size) {
      try {
        // Ranged reads: a container's section headers + extern key
        // tables, or a pack's footer + key table — planning touches
        // kilobytes per file, never the hot tier's bulk. The ranged
        // trust model (no whole-file CRC64) is safe here: a mis-read
        // can only mis-place an object across tiers (reads fall
        // through), never lose one.
        CachedKeys entry;
        entry.bytes = size;
        entry.keys = ckpt::parse_checkpoint_file_name(name)
                         ? ckpt::list_chunk_refs(env_.hot(), path)
                         : ckpt::list_pack_keys(env_.hot(), path);
        cached = key_cache_.insert_or_assign(name, std::move(entry)).first;
      } catch (const std::exception&) {
        key_cache_.erase(name);
        if (!env_.hot().exists(path)) {
          continue;  // raced a concurrent demotion; nothing to count
        }
        refs_known = false;
        continue;
      }
    }
    if (ckpt::parse_checkpoint_file_name(name)) {
      for (const ckpt::ChunkKey& key : cached->second.keys) {
        ++hot_keys[key];
      }
      refs_by_file[name] = &cached->second.keys;
    } else {
      hot_packs[name] = {&cached->second.keys, cached->second.bytes};
    }
  }

  std::vector<Unit> plan;
  std::uint64_t projected = hot_bytes;
  std::set<std::string> planned_packs;
  const auto take_fully_cold_packs = [&] {
    if (!refs_known) {
      return;
    }
    for (const auto& [rel, pack] : hot_packs) {
      if (planned_packs.contains(rel)) {
        continue;
      }
      bool cold = true;
      for (const ckpt::ChunkKey& key : *pack.first) {
        const auto it = hot_keys.find(key);
        if (it != hot_keys.end() && it->second > 0) {
          cold = false;
          break;
        }
      }
      if (!cold) {
        continue;
      }
      Unit unit;
      unit.files.push_back(rel);
      unit.bytes = pack.second;
      projected -= std::min(projected, unit.bytes);
      planned_packs.insert(rel);
      plan.push_back(std::move(unit));
    }
  };

  // Packfiles already fully cold are free wins; then checkpoint units
  // oldest-first, each possibly freeing more packs, until the budget
  // is met or nothing demotable remains.
  take_fully_cold_packs();
  for (auto& [root, unit] : units) {
    if (projected <= policy_.hot_byte_budget) {
      break;
    }
    projected -= std::min(projected, unit.bytes);
    for (const std::string& file : unit.files) {
      const auto it = refs_by_file.find(file);
      if (it == refs_by_file.end()) {
        continue;
      }
      for (const ckpt::ChunkKey& key : *it->second) {
        const auto ref = hot_keys.find(key);
        if (ref != hot_keys.end() && ref->second > 0) {
          --ref->second;
        }
      }
    }
    plan.push_back(std::move(unit));
    take_fully_cold_packs();
  }

  if (projected > policy_.hot_byte_budget) {
    budget_misses_.add();
  }
  return plan;
}

std::size_t MigrationEngine::demote(const std::vector<Unit>& units) {
  if (units.empty()) {
    return 0;
  }
  std::lock_guard lock(mu_);
  demote_runs_.add();
  obs::Span span(tracer_, "demote", "tier");
  span.note("units", static_cast<std::uint64_t>(units.size()));

  std::size_t demoted = 0;
  for (const Unit& unit : units) {
    for (const std::string& name : unit.files) {
      const std::string path = dir_ + "/" + name;
      // The copy is durable in the cold tier (streamed atomic install,
      // fsynced by the cold Env) before the hot copy dies: a crash in
      // between leaves a duplicate the reconcile collapses.
      const auto bytes = io::stream_copy(env_.hot(), env_.cold(), path);
      if (!bytes) {
        continue;  // already cold or deleted underneath us
      }
      env_.hot().remove_file(path);
      files_demoted_.add();
      bytes_demoted_.add(*bytes);
      cold_bytes_.set(cold_bytes_.value() + *bytes);
      ++demoted;
    }
  }
  // Gauges: the hot side is a cheap fast-tier listing; the cold side is
  // maintained incrementally (full listings only at reconcile) so the
  // install tail never pays a capacity-tier enumeration. It can drift
  // slightly when GC deletes cold victims, until the next reconcile.
  hot_bytes_.set(resident_bytes(env_.hot()));
  span.note("files", static_cast<std::uint64_t>(demoted));
  return demoted;
}

std::size_t MigrationEngine::migrate(const ckpt::Manifest& manifest) {
  return demote(plan_demotions(manifest));
}

std::size_t MigrationEngine::reconcile() {
  std::lock_guard lock(mu_);
  const std::vector<std::string> hot_top = env_.hot().list_dir(dir_);
  if (std::find(hot_top.begin(), hot_top.end(), kLegacyTiermap) !=
      hot_top.end()) {
    env_.hot().remove_file(dir_ + "/" + kLegacyTiermap);
  }
  const auto hot_files = migratable_files(env_.hot(), dir_, hot_top);
  const std::set<std::string> hot_set(hot_files.begin(), hot_files.end());
  std::size_t collapsed = 0;
  for (const std::string& name : migratable_files(env_.cold(), dir_)) {
    if (hot_set.contains(name)) {
      // A crash mid-migration stranded both copies. The hot copy wins:
      // every write path targets the hot tier, so a diverging cold
      // copy can only be stale — and for an undisturbed migration the
      // two are identical, making either choice safe.
      env_.cold().remove_file(dir_ + "/" + name);
      ++collapsed;
    }
  }
  duplicates_collapsed_.add(collapsed);
  hot_bytes_.set(resident_bytes(env_.hot()));
  cold_bytes_.set(resident_bytes(env_.cold()));
  return collapsed;
}

std::vector<std::string> MigrationEngine::cold_files() {
  return migratable_files(env_.cold(), dir_);
}

TierStats MigrationEngine::stats() const {
  return {.demote_runs = demote_runs_.value(),
          .files_demoted = files_demoted_.value(),
          .bytes_demoted = bytes_demoted_.value(),
          .duplicates_collapsed = duplicates_collapsed_.value(),
          .budget_misses = budget_misses_.value(),
          .hot_bytes = hot_bytes_.value(),
          .cold_bytes = cold_bytes_.value()};
}

}  // namespace qnn::tier
