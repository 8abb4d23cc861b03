#include "ckpt/verify.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "ckpt/cas.hpp"
#include "ckpt/format.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/wal.hpp"
#include "tier/tiered_env.hpp"

namespace qnn::ckpt {

std::string health_name(CheckpointHealth health) {
  switch (health) {
    case CheckpointHealth::kIntact: return "intact";
    case CheckpointHealth::kDamaged: return "damaged";
    case CheckpointHealth::kChainBroken: return "chain-broken";
    case CheckpointHealth::kMissing: return "missing";
  }
  return "unknown";
}

bool DirectoryReport::healthy() const {
  if (checkpoints.empty()) {
    return false;
  }
  for (const CheckpointReport& r : checkpoints) {
    if (r.health != CheckpointHealth::kIntact) {
      return false;
    }
  }
  return newest_recoverable.has_value() &&
         *newest_recoverable == checkpoints.back().id;
}

std::string DirectoryReport::summary() const {
  std::ostringstream os;
  os << "manifest: " << (manifest_present ? "present" : "MISSING") << ", "
     << checkpoints.size() << " checkpoint(s)\n";
  for (const CheckpointReport& r : checkpoints) {
    os << "  id=" << r.id << " step=" << r.step << " " << r.file << " -> "
       << health_name(r.health);
    if (!r.tier.empty()) {
      os << " [" << r.tier << "]";
    }
    os << "\n";
    for (const std::string& note : r.notes) {
      os << "      " << note << "\n";
    }
  }
  for (const std::string& orphan : orphan_files) {
    os << "  orphan file: " << orphan << "\n";
  }
  for (const WalReport& w : journals) {
    os << "  journal " << w.file << ": ";
    if (!w.readable) {
      os << "unreadable header (replay ignores it)";
    } else {
      os << w.records << " record(s) to step " << w.last_step;
      if (w.torn_bytes > 0) {
        os << ", " << w.torn_bytes << " torn byte(s)";
      }
    }
    os << (w.epoch_advertised ? " [active]" : " [stale]") << "\n";
  }
  if (newest_recoverable) {
    os << "newest recoverable: id=" << *newest_recoverable << "\n";
  } else {
    os << "NO RECOVERABLE CHECKPOINT\n";
  }
  os << "verdict: " << (healthy() ? "HEALTHY" : "NEEDS ATTENTION") << "\n";
  return os.str();
}

DirectoryReport verify_directory(io::Env& target, const std::string& dir) {
  // A scrub moves nothing. Through a promoting TieredEnv the chain walk
  // and the chunk store promote the cold objects they read, so scrub
  // through a non-promoting view of the same two tiers.
  auto* tiered = dynamic_cast<tier::TieredEnv*>(&target);
  std::optional<tier::TieredEnv> view;
  if (tiered != nullptr) {
    view.emplace(tiered->hot(), tiered->cold());
  }
  io::Env& env = view ? *view : target;

  DirectoryReport report;
  const Manifest manifest = Manifest::load(env, dir);
  report.manifest_present = env.exists(dir + "/MANIFEST");
  // Content-addressed sections verify through the directory's chunk
  // store (every fetched chunk is digest-checked); a missing or corrupt
  // chunk marks the checkpoint damaged exactly like inline corruption.
  ChunkStore cas(env, dir);

  // Union of manifest entries and canonical files on disk.
  std::set<std::uint64_t> ids;
  std::set<std::uint64_t> manifest_ids;
  for (const ManifestEntry& e : manifest.entries()) {
    ids.insert(e.id);
    manifest_ids.insert(e.id);
  }
  for (const std::string& name : env.list_dir(dir)) {
    if (const auto id = parse_checkpoint_file_name(name)) {
      if (!manifest_ids.contains(*id)) {
        report.orphan_files.push_back(name);
      }
      ids.insert(*id);
    } else if (const auto epoch = parse_wal_file_name(name)) {
      WalReport w;
      w.file = name;
      w.epoch = *epoch;
      w.epoch_advertised = manifest_ids.contains(*epoch);
      if (const auto scan = scan_wal(env, dir, *epoch)) {
        w.readable = true;
        w.records = scan->records;
        w.last_step = scan->last_step;
        w.torn_bytes = scan->torn_bytes;
      }
      report.journals.push_back(std::move(w));
    }
  }

  for (std::uint64_t id : ids) {
    CheckpointReport r;
    r.id = id;
    r.file = checkpoint_file_name(id);
    if (const ManifestEntry* e = manifest.find(id)) {
      r.step = e->step;
    }
    if (tiered) {
      const bool hot = tiered->hot().exists(dir + "/" + r.file);
      const bool cold = tiered->cold().exists(dir + "/" + r.file);
      if (hot || cold) {
        r.tier = hot && cold ? "hot+cold" : (cold ? "cold" : "hot");
      }
    }

    const auto data = env.read_file(dir + "/" + r.file);
    if (!data) {
      r.health = CheckpointHealth::kMissing;
      r.notes.push_back("file referenced by manifest but absent on disk");
      report.checkpoints.push_back(std::move(r));
      continue;
    }

    // Chain resolution (covers the file and its ancestors), through the
    // same chunk store, so every packfile is scanned once per scrub, not
    // once per id. Only a failure pays for the file-local salvage, which
    // fetches the file's chunks again to tell a damaged file from a
    // broken chain.
    try {
      (void)load_checkpoint(env, dir, id, &cas);
      r.health = CheckpointHealth::kIntact;
      r.step = decode_checkpoint_header(*data).step;
    } catch (const std::exception& e) {
      const SalvageResult salvage =
          salvage_checkpoint(*data, DecodeOptions{.source = &cas});
      if (!salvage.file || !salvage.fully_intact) {
        r.health = CheckpointHealth::kDamaged;
        r.notes = salvage.notes;
      } else {
        r.health = CheckpointHealth::kChainBroken;
        r.step = salvage.file->step;
        r.notes.push_back(e.what());
      }
    }
    report.checkpoints.push_back(std::move(r));
  }

  for (auto it = report.checkpoints.rbegin(); it != report.checkpoints.rend();
       ++it) {
    if (it->health == CheckpointHealth::kIntact) {
      report.newest_recoverable = it->id;
      break;
    }
  }
  return report;
}

}  // namespace qnn::ckpt
