#include "tier/migration.hpp"

#include <algorithm>
#include <sstream>

#include "ckpt/cas.hpp"
#include "ckpt/format.hpp"
#include "ckpt/manifest.hpp"
#include "util/strings.hpp"

namespace qnn::tier {

namespace {

constexpr const char* kTiermapName = "TIERMAP";
constexpr const char* kTiermapHeader = "qnnckpt-tiermap v1";

/// True for the dir-relative names migration may move: checkpoint
/// containers and chunk packfiles. Everything else (MANIFEST, TIERMAP,
/// unknown files) is pinned hot.
bool migratable_name(const std::string& name) {
  if (ckpt::parse_checkpoint_file_name(name)) {
    return true;
  }
  if (util::starts_with(name, "chunks/")) {
    return ckpt::parse_pack_file_name(name.substr(7)).has_value();
  }
  return false;
}

/// The migratable dir-relative names present in `tier_env`'s view.
std::vector<std::string> migratable_files(io::Env& tier_env,
                                          const std::string& dir) {
  std::vector<std::string> out;
  for (const std::string& name : tier_env.list_dir(dir)) {
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

/// Inserts `id` and its ancestor chain into `set` (same closure rule as
/// the retention planner: pinning a delta pins everything it resolves
/// through).
void pin_with_chain(const ckpt::Manifest& manifest, std::uint64_t id,
                    std::set<std::uint64_t>& set) {
  while (id != 0 && !set.contains(id)) {
    set.insert(id);
    const ckpt::ManifestEntry* e = manifest.find(id);
    if (e == nullptr) {
      break;
    }
    id = e->parent_id;
  }
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
      fences_(metrics_.counter("tier.fences")),
      duplicates_collapsed_(metrics_.counter("tier.duplicates_collapsed")),
      budget_misses_(metrics_.counter("tier.budget_misses")),
      hot_bytes_(metrics_.gauge("tier.hot_bytes")),
      cold_bytes_(metrics_.gauge("tier.cold_bytes")) {}

void MigrationEngine::ensure_open_locked() {
  if (opened_) {
    return;
  }
  opened_ = true;
  const auto data = env_.hot().read_file(dir_ + "/" + kTiermapName);
  if (!data) {
    return;
  }
  const std::string text(data->begin(), data->end());
  for (const std::string& line : util::split(text, '\n')) {
    const std::string trimmed = util::trim(line);
    if (trimmed.empty() || trimmed == kTiermapHeader) {
      continue;
    }
    const auto fields = util::split(trimmed, ' ');
    // Unknown record types are ignored (forward compatibility); stale
    // or torn marks are harmless — residency truth is the listings.
    if (fields.size() == 2 && fields[0] == "cold" &&
        migratable_name(fields[1])) {
      cold_set_.insert(fields[1]);
    }
  }
}

void MigrationEngine::save_tiermap_locked() {
  // cold_set_ is maintained by the engine's own moves (demote inserts,
  // forget erases) and rebuilt from a listing at the startup
  // reconcile. Marks invalidated behind its back (a read-through
  // promotion at the Env level) go stale until then — deliberately NOT
  // probed away here: a cold exists() per mark per fence would charge
  // O(cold population) capacity-tier round trips to every install, and
  // the map is advisory either way (residency truth is the listings;
  // the inspector flags stale marks).
  if (cold_set_.empty() &&
      !env_.hot().exists(dir_ + "/" + kTiermapName)) {
    return;  // nothing tiered yet: do not invent metadata
  }
  std::ostringstream os;
  os << kTiermapHeader << "\n";
  for (const std::string& name : cold_set_) {
    os << "cold " << name << "\n";
  }
  const std::string text = os.str();
  env_.hot().write_file_atomic(
      dir_ + "/" + kTiermapName,
      util::ByteSpan{reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});
  fences_.add();
  if (tracer_ != nullptr) {
    tracer_->instant(
        "tiermap.fence", "tier",
        {{"cold_files", std::to_string(cold_set_.size())}});
  }
}

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
  ensure_open_locked();

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
    pin_with_chain(manifest, entries[i].id, pinned);
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
  // a parent chain never splits across a demotion batch.
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
  ensure_open_locked();
  demote_runs_.add();
  obs::Span span(tracer_, "demote", "tier");
  span.note("units", static_cast<std::uint64_t>(units.size()));

  // Greedy batches of whole units: up to demote_batch files per fence,
  // always at least one unit (an oversized unit gets its own batch).
  std::size_t demoted = 0;
  std::size_t i = 0;
  while (i < units.size()) {
    std::vector<const Unit*> batch{&units[i++]};
    std::size_t files = batch.back()->files.size();
    while (i < units.size() &&
           files + units[i].files.size() <= policy_.demote_batch) {
      files += units[i].files.size();
      batch.push_back(&units[i++]);
    }

    // 1. Copy: every object durable in the cold tier (streamed atomic
    //    install, fsynced by the cold Env) before anything else happens.
    std::vector<std::pair<std::string, std::uint64_t>> copied;
    for (const Unit* unit : batch) {
      for (const std::string& name : unit->files) {
        const std::string path = dir_ + "/" + name;
        const auto bytes = io::stream_copy(env_.hot(), env_.cold(), path);
        if (!bytes) {
          continue;  // already cold or deleted underneath us
        }
        copied.emplace_back(name, *bytes);
      }
    }
    if (copied.empty()) {
      continue;
    }
    // 2. Fence: the TIERMAP advertises the new residency. A crash
    //    before this point leaves hot-resident objects plus ignorable
    //    cold duplicates; after it, cold-resident objects whose hot
    //    duplicates the reconcile collapses.
    for (const auto& [name, bytes] : copied) {
      cold_set_.insert(name);
    }
    save_tiermap_locked();
    // 3. Only now may the hot copies die.
    for (const auto& [name, bytes] : copied) {
      env_.hot().remove_file(dir_ + "/" + name);
      files_demoted_.add();
      bytes_demoted_.add(bytes);
      cold_bytes_.set(cold_bytes_.value() + bytes);
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
  opened_ = true;  // the rebuild below supersedes any TIERMAP load
  const auto hot_files = migratable_files(env_.hot(), dir_);
  const std::set<std::string> hot_set(hot_files.begin(), hot_files.end());
  std::size_t collapsed = 0;
  std::set<std::string> cold_now;
  for (const std::string& name : migratable_files(env_.cold(), dir_)) {
    if (hot_set.contains(name)) {
      // A crash mid-migration stranded both copies. The hot copy wins:
      // every write path targets the hot tier, so a diverging cold
      // copy can only be stale — and for an undisturbed migration the
      // two are identical, making either choice safe.
      env_.cold().remove_file(dir_ + "/" + name);
      ++collapsed;
    } else {
      cold_now.insert(name);
    }
  }
  duplicates_collapsed_.add(collapsed);
  const bool changed = cold_now != cold_set_;
  cold_set_ = std::move(cold_now);
  if (changed) {
    save_tiermap_locked();
  }
  hot_bytes_.set(resident_bytes(env_.hot()));
  cold_bytes_.set(resident_bytes(env_.cold()));
  return collapsed;
}

void MigrationEngine::forget(const std::vector<std::string>& names) {
  std::lock_guard lock(mu_);
  ensure_open_locked();
  for (const std::string& name : names) {
    cold_set_.erase(name);
  }
  // No fence here: the next fence (or startup reconcile) persists the
  // thinner map; a stale mark is advisory either way.
}

std::vector<std::string> MigrationEngine::cold_files() {
  std::lock_guard lock(mu_);
  ensure_open_locked();
  return {cold_set_.begin(), cold_set_.end()};
}

TierStats MigrationEngine::stats() const {
  return {.demote_runs = demote_runs_.value(),
          .files_demoted = files_demoted_.value(),
          .bytes_demoted = bytes_demoted_.value(),
          .fences = fences_.value(),
          .duplicates_collapsed = duplicates_collapsed_.value(),
          .budget_misses = budget_misses_.value(),
          .hot_bytes = hot_bytes_.value(),
          .cold_bytes = cold_bytes_.value()};
}

}  // namespace qnn::tier
