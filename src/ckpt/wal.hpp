// WAL-style delta journal between full checkpoint installs.
//
// Whole-container installs bound the lost work after a crash by the
// checkpoint interval; the journal shrinks that term to *replay time*.
// After every install the Checkpointer opens `wal-<epoch>.qwal` (epoch =
// the installed checkpoint's id) and appends one framed record per
// training step; recovery loads the newest resolvable checkpoint and
// redo-replays its journal up to the last record whose frame CRC
// validates, truncating torn tails.
//
// On-disk layout (all integers little-endian):
//
//   header   "QWAL" u16 version  u64 epoch  u64 base_step  u32 crc32c
//            (crc over the preceding 22 bytes)
//   record*  u64 payload_len  u32 crc32c(le64(payload_len) || payload)
//            payload
//
// A record's payload is `u64 step, u32 n_sections, section*` — the step's
// state, one section per kind. Version 2 lays a section out as
//
//   u16 kind  u8 flags  u8 codec  u64 base_len  u64 raw_len
//   u64 enc_len  enc_len bytes
//
// The raw_len-byte body is the section payload XOR-delta'd
// (kSectionFlagDelta) against the previous record's resolved payload of
// that kind, also across a size change: a grown or cleared loss history
// still cancels its shared prefix, and base_len is the size of the base
// the delta applies to. The first record deltas against the epoch's
// installed state. The body is stored encoded with the Checkpointer's
// policy codec — the one its containers use — or with codec kRaw when
// the encoding is not smaller. Version 1 journals (`u16 kind, u8 flags,
// u64 len, bytes`: raw bodies, deltas only between equal sizes) still
// replay; nothing writes them.
//
// Crash model: the log is written on the streamed kPlain append path —
// one append per record — so a crash tears the file at an append/byte
// boundary and the torn frame fails its CRC (or underruns). Group
// commit: the writer syncs the handle every `group_commit_steps`
// records; records between sync points ride the device's write cache.
// Replay is read-only and a pure function of (base checkpoint, valid
// frame prefix), so replaying the same journal twice — e.g. a crash
// during recovery followed by a second recovery — yields a
// digest-identical state.
//
// What is and is not guaranteed between full installs:
//   * a fully-framed record is recovered iff its bytes were durable —
//     records since the last sync point may be lost with the write cache;
//   * torn tails are detected (length underrun or CRC mismatch) and
//     ignored, never applied partially;
//   * the journal never outlives its base: stores reap logs whose epoch
//     the manifest no longer advertises, and the active log is pinned.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "ckpt/format.hpp"
#include "ckpt/state_codec.hpp"
#include "codec/codec.hpp"
#include "io/env.hpp"
#include "qnn/training_state.hpp"

namespace qnn::ckpt {

struct WalPolicy {
  bool enable = false;
  /// Group commit: sync the log handle every this many records
  /// (0 or 1 = sync every record).
  std::uint64_t group_commit_steps = 8;
  /// Compaction budget: once the active log exceeds this many stored
  /// (encoded) bytes the Checkpointer folds it into a normal install and
  /// rotates. 0 = never compact on size.
  std::uint64_t max_log_bytes = std::uint64_t{4} << 20;
};

/// Canonical journal file name for an epoch: "wal-0000000042.qwal".
std::string wal_file_name(std::uint64_t epoch);

/// Parses an epoch back out of a journal file name; nullopt when the
/// name does not match the canonical pattern.
std::optional<std::uint64_t> parse_wal_file_name(const std::string& name);

/// Frame-level scan summary of one journal (no state reconstruction).
struct WalScan {
  std::uint64_t epoch = 0;
  std::uint64_t base_step = 0;
  std::uint64_t records = 0;      ///< fully-framed records
  std::uint64_t last_step = 0;    ///< step of the last valid record
  std::uint64_t valid_bytes = 0;  ///< header + valid frames
  std::uint64_t torn_bytes = 0;   ///< ignored tail past the last valid frame
};

/// Frame-validates `dir`/wal-<epoch>.qwal. nullopt when the file is
/// missing or its header is unusable (torn, wrong magic/version, or an
/// epoch that does not match the file name — a stale log must never
/// masquerade as the active one).
std::optional<WalScan> scan_wal(io::Env& env, const std::string& dir,
                                std::uint64_t epoch);

/// Result of folding a journal into a base checkpoint's sections.
struct WalReplay {
  std::uint64_t records_applied = 0;
  std::uint64_t step = 0;  ///< step of the last applied record
  std::uint64_t torn_bytes = 0;
};

/// Redo-only replay: folds every fully-framed record of
/// `dir`/wal-<epoch>.qwal into `sections` (the base checkpoint's
/// resolved payloads keyed by kind, see ckpt/state_codec.hpp) in place,
/// stopping at the first torn or CRC-invalid frame. A record that names
/// one kind twice counts as torn. Every body of a record is checked
/// before any section changes, each delta's base and that it decodes
/// (codec::check_decodes: an LZ body's tokens pass the decoder's checks
/// and nothing is written), so records apply atomically: a record that
/// parses but cannot apply (a delta whose base is missing or not
/// base_len bytes long, or a section that fails to decode) stops the
/// replay with `sections` at exactly the previous record's state. Then
/// each body is decoded into place (codec::decode_to): a delta's pieces are
/// XOR-ed into its payload, resized first to the body's length
/// (SectionPayload::resize), and a full body's are copied into a fresh
/// payload of that length. An LZ body passes through a window of 64 KiB
/// of history plus one piece, so replay holds the state plus that
/// window, not a decoded record. Returns nullopt — with `sections`
/// untouched — when there is no usable journal or it holds zero valid
/// records.
std::optional<WalReplay> replay_wal(io::Env& env, const std::string& dir,
                                    std::uint64_t epoch,
                                    SectionPayloads& sections);

/// Append-side of the journal: opened by the Checkpointer right after an
/// install, closed (and superseded) by the next rotation. It holds one
/// base per kind, the last logged payload, and builds each record's
/// delta in it (xor_section_into, then copy_section_over, the steps
/// kIncremental's sync checkpoints share): a record reads the caller's
/// state in place and adds only its encoded bytes, not a copy of the
/// state.
class WalWriter {
 public:
  /// Creates (truncating any stale same-name log) `dir`/wal-<epoch>.qwal
  /// and writes the header. `codec` encodes every record section (the
  /// Checkpointer passes its policy codec); `base` is the
  /// freshly-installed state the first record deltas against.
  WalWriter(io::Env& env, const std::string& dir, std::uint64_t epoch,
            WalPolicy policy, codec::CodecId codec,
            const qnn::TrainingState& base, bool include_simulator);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one framed record for `state` (one plain-stream append =
  /// one crash-atomic frame), group-committing per policy. Each base
  /// (resized to its section, leading bytes kept) has the section XOR-ed
  /// into it, and that is the body encoded; once the append returns,
  /// the section is copied over it, the next delta base. After any throw
  /// the bases are no longer the log's: failed() holds and further calls
  /// throw logic_error.
  void log_step(const qnn::TrainingState& state);

  /// Explicit group-commit point (idempotent when nothing is pending).
  void sync();

  /// Final sync + handle close. Further log_step calls are invalid.
  void close();

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::uint64_t bytes_logged() const { return bytes_; }
  [[nodiscard]] std::uint64_t syncs() const { return syncs_; }
  [[nodiscard]] bool over_budget() const {
    return policy_.max_log_bytes > 0 && bytes_ > policy_.max_log_bytes;
  }
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  io::Env& env_;
  const std::uint64_t epoch_;
  const WalPolicy policy_;
  const codec::CodecId codec_;
  const bool include_simulator_;
  std::unique_ptr<io::WritableFile> out_;
  /// Previous record's resolved raw payloads (XOR-delta bases); each
  /// record's delta is built in its kind's buffer.
  std::map<SectionKind, Bytes> last_raw_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t unsynced_ = 0;
  bool failed_ = false;
};

}  // namespace qnn::ckpt
