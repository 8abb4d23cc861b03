// Crash recovery: find, verify and reassemble the newest usable checkpoint.
//
// Procedure:
//   1. load the manifest; if it is missing/empty, rescan the directory for
//      canonical checkpoint file names;
//   2. walk candidates newest-first; for each, read its chain leaf to
//      root (following a parent only once its CRC64 verifies; a chain
//      of more than 1,024 links is rejected as cyclic), then fold
//      it root first in place, one chunk at a time. A full payload
//      decodes straight into the storage of the TrainingState field it
//      loads into (ckpt/state_codec.hpp: an array lands in its vector,
//      the count in a leading slot), a delta's chunks XOR into that
//      payload, and loading moves it there: a chain recovers with one
//      resolved state plus one chunk, whatever its depth;
//   3. redo-only journal replay: fold the candidate's delta journal
//      (wal-<id>.qwal, see ckpt/wal.hpp) into the resolved sections in
//      place up to the last frame whose CRC validates, truncating torn
//      tails — replay is read-only and deterministic, so an interrupted
//      recovery rerun reaches the identical state;
//   4. on any failure record a note and fall back to the next older
//      candidate — a corrupt or torn checkpoint must never be *silently*
//      accepted, and an older intact one must still win.
//
// Every run additionally keeps a FLIGHT RECORDER: an ordered list of
// structured events (manifest scan, candidate attempts, chain
// resolution depth, WAL replay extent, tier promotions) answering "what
// did recovery actually do, in order" — the machine-readable twin of
// the free-form notes. With RecoveryOptions::tracer set, the same
// events land as spans/instants in a Chrome trace.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/manifest.hpp"
#include "io/env.hpp"
#include "obs/trace.hpp"
#include "qnn/training_state.hpp"

namespace qnn::ckpt {

/// One flight-recorder entry: a stable event name plus key=value detail.
struct FlightEvent {
  std::string name;
  std::vector<std::pair<std::string, std::string>> kv;

  /// The value recorded under `key`, or "" when absent (test helper).
  [[nodiscard]] std::string value(const std::string& key) const {
    for (const auto& [k, v] : kv) {
      if (k == key) {
        return v;
      }
    }
    return {};
  }
};

struct RecoveryOutcome {
  qnn::TrainingState state;
  std::uint64_t checkpoint_id = 0;
  std::uint64_t step = 0;
  /// Candidates rejected on the way plus manifest damage reports
  /// ("manifest: skipped N unparseable line(s)"). Empty = newest was
  /// intact and the manifest parsed cleanly.
  std::vector<std::string> notes;
  /// Ordered flight-recorder events (see file comment). Names:
  /// manifest.scan, candidate.try, chain.resolved, wal.replay,
  /// wal.replay_unloadable, candidate.reject, tier.promoted, recovered.
  std::vector<FlightEvent> events;
};

struct RecoveryOptions {
  /// Optional span/event sink (borrowed; null = no tracing). The flight
  /// recorder in RecoveryOutcome::events is populated either way.
  obs::Tracer* tracer = nullptr;
};

/// Returns the newest recoverable training state, or std::nullopt when the
/// directory holds no usable checkpoint. A full checkpoint or a chain of
/// any depth recovers with one copy of the state in memory, plus one
/// chunk; journal replay with the state plus LZ's decode window. A
/// candidate that fails mid-fold leaves a half-folded state that dies
/// with the attempt: every candidate, and a replayed state that cannot
/// load (which falls back to the base checkpoint), resolves from
/// scratch.
std::optional<RecoveryOutcome> recover_latest(io::Env& env,
                                              const std::string& dir);
std::optional<RecoveryOutcome> recover_latest(io::Env& env,
                                              const std::string& dir,
                                              const RecoveryOptions& options);

/// Loads and fully resolves one specific checkpoint id (folding its
/// ancestor chain in place, as recover_latest does; no journal replay).
/// Extern sections resolve through `source` when given (a caller loading
/// many ids shares one store, so its packfiles are scanned once), else
/// through a chunk store of its own. Throws CorruptCheckpoint /
/// std::runtime_error on failure. Exposed for the scrub, the inspector
/// tool and tests.
qnn::TrainingState load_checkpoint(io::Env& env, const std::string& dir,
                                   std::uint64_t id,
                                   ChunkSource* source = nullptr);

}  // namespace qnn::ckpt
