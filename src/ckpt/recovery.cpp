#include "ckpt/recovery.hpp"

#include <algorithm>

#include "ckpt/cas.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/wal.hpp"
#include "tier/tiered_env.hpp"

namespace qnn::ckpt {

namespace {

/// Upper bound on incremental chain length (cycle/insanity guard).
constexpr std::size_t kMaxChain = 1024;

/// Candidate list: manifest entries if present, else directory scan.
/// Manifest damage (unparseable lines) is reported through `notes`.
std::vector<ManifestEntry> candidates(io::Env& env, const std::string& dir,
                                      std::vector<std::string>& notes) {
  Manifest manifest = Manifest::load(env, dir);
  if (manifest.parse_warnings() > 0) {
    notes.push_back("manifest: skipped " +
                    std::to_string(manifest.parse_warnings()) +
                    " unparseable line(s)");
  }
  if (!manifest.entries().empty()) {
    return manifest.entries();
  }
  // Manifest missing or empty: let the files speak. Parent links and steps
  // are recovered from the file headers during resolution.
  std::vector<ManifestEntry> found;
  for (const std::string& name : env.list_dir(dir)) {
    if (const auto id = parse_checkpoint_file_name(name)) {
      ManifestEntry e;
      e.id = *id;
      e.file = name;
      found.push_back(e);
    }
  }
  std::sort(found.begin(), found.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.id < b.id;
            });
  return found;
}

/// Fully resolves checkpoint `id` into raw payloads keyed by kind. The
/// walk reads each container once, leaf to root (v3: key tables), and
/// follows a parent id only after that container's footer CRC64
/// verifies. The fold decodes root first, one file at a time: a full
/// payload lands in fresh storage of the state field it loads into,
/// and a delta is XOR-ed chunk by chunk into the resolved payload it
/// applies to, resized first to the delta's length (leading bytes kept,
/// tail zero-filled) — one resolved state plus one chunk, whatever the
/// depth. Extern sections resolve through `source`
/// (the directory's chunk store, shared across candidates so its
/// packfile scan happens once per recovery); a missing or corrupt chunk
/// throws like any other damage, so callers fall back to older
/// candidates instead of accepting it. On a TieredEnv each container is
/// read with read_promoting(), as the chunk store promotes the packs a
/// read needs.
SectionPayloads resolve_chain(io::Env& env, const std::string& dir,
                              std::uint64_t id, ChunkSource* source,
                              std::size_t* depth_out = nullptr) {
  auto* tiered = dynamic_cast<tier::TieredEnv*>(&env);
  std::vector<Bytes> chain;  // raw containers, leaf -> root
  for (std::uint64_t cur = id; cur != 0;) {
    if (chain.size() >= kMaxChain) {
      throw CorruptCheckpoint("incremental chain too long or cyclic");
    }
    const std::string name = checkpoint_file_name(cur);
    const std::string path = dir + "/" + name;
    auto data = tiered ? tiered->read_promoting(path) : env.read_file(path);
    if (!data) {
      throw CorruptCheckpoint("file missing: " + name);
    }
    const CheckpointFile header = decode_checkpoint_header(*data);
    if (header.checkpoint_id != cur) {
      throw CorruptCheckpoint("checkpoint id does not match file name");
    }
    cur = header.parent_id;
    chain.push_back(std::move(*data));
  }
  if (depth_out != nullptr) {
    *depth_out = chain.size();
  }

  // A strict decode places every section, in file order, or throws; a
  // throw leaves `resolved` half folded, and it dies with this call.
  SectionPayloads resolved;
  DecodeOptions decode{.source = source};
  decode.place = [&](const Section& s, std::uint64_t raw_len) {
    if (!s.is_delta()) {
      resolved[s.kind] = SectionPayload(s.kind, raw_len);
      return PayloadTarget{.bytes = resolved[s.kind].bytes()};
    }
    const auto base = resolved.find(s.kind);
    if (base == resolved.end()) {
      throw CorruptCheckpoint("delta section " + section_kind_name(s.kind) +
                              " has no base in ancestor chain");
    }
    base->second.resize(s.kind, raw_len);
    return PayloadTarget{.bytes = base->second.bytes(), .xor_into = true};
  };
  for (; !chain.empty(); chain.pop_back()) {
    decode_checkpoint(chain.back(), decode);
  }
  return resolved;
}

}  // namespace

qnn::TrainingState load_checkpoint(io::Env& env, const std::string& dir,
                                   std::uint64_t id, ChunkSource* source) {
  std::optional<ChunkStore> own;
  if (source == nullptr) {
    source = &own.emplace(env, dir);
  }
  return load_state(resolve_chain(env, dir, id, source));
}

std::optional<RecoveryOutcome> recover_latest(io::Env& env,
                                              const std::string& dir) {
  return recover_latest(env, dir, RecoveryOptions{});
}

std::optional<RecoveryOutcome> recover_latest(io::Env& env,
                                              const std::string& dir,
                                              const RecoveryOptions& options) {
  std::vector<std::string> notes;
  // Flight recorder: every structured event is appended here in order
  // (and mirrored to the tracer when one is mounted), accumulating
  // across failed candidates exactly like the prose notes.
  std::vector<FlightEvent> events;
  const auto record =
      [&](std::string name,
          std::vector<std::pair<std::string, std::string>> kv) {
        if (options.tracer != nullptr) {
          std::vector<obs::Tracer::Arg> args;
          args.reserve(kv.size());
          for (const auto& [k, v] : kv) {
            args.push_back({k, obs::Tracer::json_string(v)});
          }
          options.tracer->instant(name, "recovery", std::move(args));
        }
        events.push_back(FlightEvent{std::move(name), std::move(kv)});
      };
  obs::Span root(options.tracer, "recover_latest", "recovery");

  // On a tiered Env, report how much of the recovery was served by the
  // capacity tier (and promoted back read-through): the hot-hit vs
  // cold-promote asymmetry is the tier policy's recovery-latency cost.
  auto* tiered = dynamic_cast<tier::TieredEnv*>(&env);
  const std::uint64_t cold_reads_before = tiered ? tiered->cold_reads() : 0;
  const std::uint64_t cold_bytes_before =
      tiered ? tiered->cold_read_bytes() : 0;
  const std::uint64_t promoted_before = tiered ? tiered->promoted_files() : 0;
  const std::size_t notes_before_scan = notes.size();
  const auto entries = candidates(env, dir, notes);
  record("manifest.scan",
         {{"candidates", std::to_string(entries.size())},
          {"source", notes.size() == notes_before_scan && !entries.empty()
                         ? "manifest"
                         : "rescan-or-damaged"}});

  // One chunk store for all candidate attempts (lazy: packfiles are
  // only scanned if some candidate actually has extern sections).
  ChunkStore cas(env, dir);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    obs::Span attempt(options.tracer, "candidate", "recovery", root.id());
    attempt.note("id", it->id);
    try {
      RecoveryOutcome outcome;
      record("candidate.try", {{"id", std::to_string(it->id)}});
      std::size_t chain_depth = 0;
      auto resolved = resolve_chain(env, dir, it->id, &cas, &chain_depth);
      record("chain.resolved",
             {{"id", std::to_string(it->id)},
              {"depth", std::to_string(chain_depth)},
              {"sections", std::to_string(resolved.size())}});
      // Redo-only journal replay: fold the candidate's delta journal
      // (wal-<id>.qwal) into its resolved sections in place, up to the
      // last record whose frame CRC validates; torn tails are truncated.
      // Replay is read-only and deterministic, so running it again after
      // an interrupted recovery reproduces the identical state. A replay
      // that yields an unloadable state falls back to the base
      // checkpoint, resolved again rather than held as a spare copy —
      // the journal must never make recovery worse.
      std::optional<WalReplay> replay;
      if (env.exists(dir + "/" + wal_file_name(it->id))) {
        replay = replay_wal(env, dir, it->id, resolved);
      }
      try {
        outcome.state = load_state(std::move(resolved));
      } catch (const std::exception& e) {
        if (!replay) {
          throw;
        }
        record("wal.replay_unloadable",
               {{"id", std::to_string(it->id)}, {"error", e.what()}});
        notes.push_back(wal_file_name(it->id) +
                        ": replayed state unloadable (" + e.what() +
                        "), using the base checkpoint");
        replay.reset();
        outcome.state = load_state(resolve_chain(env, dir, it->id, &cas));
      }
      if (replay) {
        record("wal.replay",
               {{"id", std::to_string(it->id)},
                {"records", std::to_string(replay->records_applied)},
                {"step", std::to_string(replay->step)},
                {"torn_bytes", std::to_string(replay->torn_bytes)}});
        notes.push_back(
            wal_file_name(it->id) + ": replayed " +
            std::to_string(replay->records_applied) + " record(s) to step " +
            std::to_string(replay->step) +
            (replay->torn_bytes > 0
                 ? " (" + std::to_string(replay->torn_bytes) +
                       " torn byte(s) truncated)"
                 : ""));
      }
      outcome.checkpoint_id = it->id;
      outcome.step = outcome.state.step;
      outcome.notes = notes;
      if (tiered && tiered->cold_reads() > cold_reads_before) {
        record("tier.promoted",
               {{"cold_reads",
                 std::to_string(tiered->cold_reads() - cold_reads_before)},
                {"cold_bytes", std::to_string(tiered->cold_read_bytes() -
                                              cold_bytes_before)},
                {"promoted",
                 std::to_string(tiered->promoted_files() - promoted_before)}});
        outcome.notes.push_back(
            "tier: " +
            std::to_string(tiered->cold_reads() - cold_reads_before) +
            " cold read(s), " +
            std::to_string(tiered->cold_read_bytes() - cold_bytes_before) +
            " bytes, " +
            std::to_string(tiered->promoted_files() - promoted_before) +
            " object(s) promoted hot");
      }
      record("recovered", {{"id", std::to_string(it->id)},
                           {"step", std::to_string(outcome.step)}});
      outcome.events = std::move(events);
      return outcome;
    } catch (const std::exception& e) {
      record("candidate.reject",
             {{"id", std::to_string(it->id)}, {"error", e.what()}});
      notes.push_back("ckpt " + std::to_string(it->id) + ": " + e.what());
    }
  }
  return std::nullopt;
}

}  // namespace qnn::ckpt
