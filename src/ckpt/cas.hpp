// ChunkStore: the content-addressed store behind format-v3 checkpoints.
//
// Every oversized section of a v3 checkpoint is split into chunks that
// are stored ONCE per directory, keyed by content (ckpt::ChunkKey =
// digest + raw length), in a packfile-per-epoch layout:
//
//   <dir>/chunks/pack-0000000007.qpak   chunks first stored by ckpt 7
//
// A packfile is STREAMED through one atomic write handle (records append
// as the encoder produces them; the close installs all-or-nothing, so a
// crash can never tear one) and carries a self-indexing layout (pack
// format v2) whose key table lives at the tail:
//
//   +--------------------------------------------------------------+
//   | magic "QPAK" | u16 version=2 | u16 reserved | u64 epoch       |
//   | per record:                                                   |
//   |   u8 digest_type | u32 raw_crc | u64 raw_len                  |
//   |   u8 codec | u64 enc_len | u32 crc32c(encoded) | enc bytes    |
//   | key table: one row per record (record header + u64 offset)    |
//   | footer: u32 n_records | u64 table_offset                      |
//   |         u32 crc32c(key table) | u64 crc64(all above) | "KAPQ" |
//   +--------------------------------------------------------------+
//
// The tail-resident key table is what makes packfile reads RANGED:
// opening a pack preads the footer + key table (a few dozen bytes per
// chunk, independent of chunk size), and resolving one chunk preads
// exactly that record's encoded bytes — verified against the record's
// CRC32C and then the content key, so skipping the whole-file CRC64
// costs no integrity on the read path. No reader checks a v2 pack's
// CRC64; the writer still writes it. Version-1 packs (record-walk
// layout, no table) are still read whole, CRC64 checked, for
// compatibility.
//
// Crash-consistency contract (proven over the crash matrix):
//   * chunks become durable BEFORE any checkpoint file referencing them
//     (the writer commits the packfile first), so a crash anywhere
//     never strands a referenced chunk;
//   * reference counts are DERIVED state and never persisted: the
//     truth is the union of the key tables of the .qckp files on disk.
//     The store rebuilds them once per open, while the directory is
//     quiescent, from each file read whole and CRC64-verified (from
//     none when no packfile, not even a damaged one, exists: no
//     resident chunk needs a count), then keeps them current through
//     retain/release — so no stale or edited count file exists to lose
//     data or free a live chunk;
//   * sweeps delete a packfile only when none of its records is
//     referenced, and compaction rewrites mixed packfiles atomically —
//     an unreferenced chunk survives at most until the next sweep, a
//     referenced one survives every sweep.
//
// Tiered directories (tier::TieredEnv): the open-time scan indexes only
// HOT-resident packfiles; cold packs are recorded and scanned lazily,
// the first time a requested chunk is not resolvable from the hot index
// — so recovering a hot checkpoint never reads (let alone promotes) a
// single cold byte, and resolving a demoted checkpoint preads exactly
// the footers, key tables and chunks its chain needs. Dedup probes
// answer from whatever is indexed at the time: at a fresh open that is
// the hot packs only, so a chunk resident only in a still-unscanned
// cold pack is re-stored hot rather than deduped (a new checkpoint's
// reference should not chain its recovery latency to the capacity
// tier). Once a cold pack HAS been indexed — a get() miss, an
// inspection drain, or a pack demoted after it was scanned — probes may
// dedup against cold-resident chunks; that stays correct (reads fall
// through tiers, and with promote_on_read the first access pulls the
// pack hot again via a streaming copy), it just means placement is
// best-effort rather than a guarantee.
//
// Single owner. One thread at a time drives a directory's writes —
// probe, put, commit, publish, retain, release, sweep: the caller's in
// sync mode, the one pipeline thread in async mode. Every key a batch
// probed is retained (retain(batch), once its file is durable) before
// the store's next sweep or release; that order alone keeps a dedup hit
// alive between the probe and the install, so nothing is pinned.
// sweep() and release() throw std::logic_error while a batch that
// probed is neither retained nor destroyed. The store mutex mu_ guards
// the chunk index, the packs and the handle cache, because inspection
// (stats(), pack_names()) may drain deferred cold packs from another
// thread while the owner writes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/format.hpp"
#include "io/env.hpp"
#include "obs/metrics.hpp"

namespace qnn::tier {
class TieredEnv;
}

namespace qnn::ckpt {

namespace detail {
class PackStream;
}

/// Snapshot of one chunk store's cas.* instruments (bench_t6_dedup,
/// inspector, Checkpointer::Stats, tests): the first three are the
/// store's own levels, the rest its counters.
struct CasStats {
  std::uint64_t packfiles = 0;        ///< packfiles currently indexed
  std::uint64_t chunks = 0;           ///< distinct keys currently indexed
  std::uint64_t stored_bytes = 0;     ///< bytes of indexed packfiles
  std::uint64_t chunk_refs = 0;       ///< keys probed by encode batches
  std::uint64_t dedup_hits = 0;       ///< chunk refs satisfied by residency
  std::uint64_t dedup_bytes = 0;      ///< raw bytes those hits skipped
  std::uint64_t chunks_written = 0;   ///< records committed to packfiles
  std::uint64_t pack_bytes_written = 0;  ///< bytes of committed packfiles
  std::uint64_t packs_deleted = 0;    ///< fully-dead packfiles removed
  std::uint64_t packs_compacted = 0;  ///< mixed packfiles rewritten
  std::uint64_t chunks_swept = 0;     ///< dead records reclaimed
  std::uint64_t bytes_swept = 0;      ///< encoded bytes reclaimed
  std::uint64_t damaged_packs = 0;    ///< packfiles failing verification
  std::uint64_t pack_handle_evictions = 0;  ///< LRU evicted an open handle
};

class ChunkStore : public ChunkSource {
 public:
  /// Counts into `metrics` (borrowed), or a private registry when null.
  ChunkStore(io::Env& env, std::string dir,
             obs::MetricsRegistry* metrics = nullptr);

  /// One checkpoint's staging area, handed to the encoder as its
  /// ChunkSink. contains() probes the index and records a reference,
  /// which the store counts once retain(batch) runs; put() STREAMS the
  /// record into the batch's packfile through an atomic write handle
  /// opened at the first put — encode memory never holds more than the
  /// chunk in flight. Destroying the batch aborts an uncommitted
  /// packfile stream (nothing ever appears on disk); destroying it
  /// unretained (a dropped checkpoint) leaves its references uncounted.
  class Batch final : public ChunkSink {
   public:
    ~Batch() override;
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    bool contains(const ChunkKey& key) override;
    void put(const ChunkKey& key, codec::CodecId codec,
             ByteSpan encoded) override;

    /// True when no new chunk was staged (a pure-dedup checkpoint: no
    /// packfile needs to be written).
    [[nodiscard]] bool empty() const { return records_.empty(); }
    /// Packfile name for this batch ("pack-<epoch>.qpak").
    [[nodiscard]] std::string pack_name() const;
    /// Finishes the streamed packfile — key table + footer — and
    /// atomically installs it. Call (on the pipeline thread in async
    /// mode) BEFORE any file referencing the batch's chunks is installed:
    /// the commit order IS the crash-consistency argument. No-op when
    /// the batch staged nothing. Throws on I/O failure, in which case
    /// nothing was installed.
    void commit();
    /// Every key the encoded file references, in reference order
    /// (duplicates preserved) — what retain(batch) counts.
    [[nodiscard]] const std::vector<ChunkKey>& refs() const { return refs_; }

   private:
    friend class ChunkStore;
    struct StagedRecord {
      ChunkKey key;
      codec::CodecId codec;
      std::uint32_t enc_crc;
      std::uint64_t offset;  ///< of the encoded bytes within the pack
      std::uint64_t enc_len;
    };
    /// Defined out of line: members include a unique_ptr over the
    /// incomplete detail::PackStream.
    Batch(ChunkStore& store, std::uint64_t epoch);

    ChunkStore& store_;
    std::uint64_t epoch_;
    std::unique_ptr<detail::PackStream> stream_;
    std::vector<StagedRecord> records_;
    std::map<ChunkKey, std::size_t> staged_index_;
    std::vector<ChunkKey> refs_;
    /// Probed and not yet retained: counted in unretained_batches_.
    bool unretained_ = false;
    bool committed_ = false;
    std::uint64_t pack_bytes_ = 0;
  };

  /// Starts staging the chunks of checkpoint `epoch`.
  std::unique_ptr<Batch> begin_batch(std::uint64_t epoch);

  /// Publishes a committed batch: its records enter the index and
  /// become dedup targets for later checkpoints. Call AFTER
  /// Batch::commit() succeeded — on the pipeline thread in async mode —
  /// and never publish a batch whose commit failed.
  void publish(const Batch& batch);

  /// True when `key` is resolvable from a durable packfile.
  bool contains(const ChunkKey& key);

  /// ChunkSource: raw chunk bytes, verified against the key (encoded CRC
  /// from the packfile record, then digest + length of the key itself).
  /// Resolution is RANGED: one pread of the record's encoded bytes, not
  /// a packfile read. Throws std::runtime_error when absent or corrupt.
  Bytes get(const ChunkKey& key) override;

  /// Reference counting. retain() counts the batch's refs() once the
  /// checkpoint file referencing them became durable (install; a second
  /// call is a no-op), release() gives `keys` back when such a file was
  /// deleted (GC victim, orphan sweep). Multiset semantics: one count
  /// per occurrence. release() throws std::logic_error while a batch
  /// that probed is not yet retained (see "Single owner" above).
  void retain(Batch& batch);
  void release(const std::vector<ChunkKey>& keys);

  /// Reclaims dead chunks: deletes packfiles with no referenced record;
  /// with `compact`, additionally rewrites (atomically, streaming record
  /// by record) packfiles that mix live and dead records so no dead
  /// chunk outlives the sweep. No-op unless the reference base is
  /// complete (every checkpoint file on disk was readable when
  /// refcounts were built) — an unreadable file means liveness is
  /// unknowable and nothing may die. A compacting sweep also removes the
  /// refcount journal (chunks/REFS) earlier versions kept. Returns
  /// reclaimed bytes. Throws std::logic_error while a batch that probed
  /// is not yet retained.
  std::uint64_t sweep(bool compact);

  /// True when the directory has any packfile — i.e. chunk accounting
  /// matters at all. Callers about to delete checkpoint files MUST call
  /// this (or open()) BEFORE the first deletion when they intend to
  /// release the victims' references: the refcount baseline has to be
  /// loaded from a directory state that still contains the victims, or
  /// the release would double-free against a post-deletion rebuild.
  bool has_packfiles();

  /// Current refcount of a key (0 when untracked).
  [[nodiscard]] std::uint64_t ref_count(const ChunkKey& key);

  /// The instruments as they stand, without the store lock: the levels
  /// count the packs indexed so far (cold packs are scanned lazily).
  [[nodiscard]] CasStats snapshot() const;
  /// snapshot() once every pack is indexed (the inspection path).
  [[nodiscard]] CasStats stats();

  /// Names of indexed packfiles (sorted), for inspection.
  [[nodiscard]] std::vector<std::string> pack_names();

  /// Keys of every record in packfile `name` (empty when not indexed).
  /// Tests read it to check what a pack holds.
  [[nodiscard]] std::vector<ChunkKey> pack_keys(const std::string& name);

  /// Forces the lazy open (packfile scan + refcount rebuild) now.
  void open();

 private:
  struct Record {
    ChunkKey key;
    codec::CodecId codec = codec::CodecId::kRaw;
    std::uint32_t enc_crc = 0;
    std::uint64_t offset = 0;  ///< of the encoded bytes within the pack
    std::uint64_t enc_len = 0;
  };
  struct Pack {
    std::vector<Record> records;
    std::uint64_t file_bytes = 0;
  };
  static constexpr std::int32_t kNoPack = -1;
  /// One key's chunk metadata: how many retained checkpoint files name
  /// it, and where its record lives (interned pack id + record index)
  /// while an indexed pack holds it. Kept only while it carries either.
  struct Entry {
    std::uint64_t refs = 0;
    std::int32_t pack = kNoPack;
    std::uint32_t record = 0;
  };
  /// Mixes the content digest, so each probe is one hash lookup.
  struct KeyHash {
    std::size_t operator()(const ChunkKey& k) const {
      std::uint64_t h = (static_cast<std::uint64_t>(k.crc) << 32) ^
                        (k.len * 0x9E3779B97F4A7C15ull);
      h ^= h >> 29;
      h *= 0xBF58476D1CE4E5B9ull;
      h ^= h >> 32;
      return static_cast<std::size_t>(h);
    }
  };

  /// Stage 1 of the lazy open: the packfile index. Enough for reads and
  /// dedup probes — recovery never pays for refcount state. On a tiered
  /// env only hot packs are scanned; cold ones land in deferred_packs_.
  void ensure_open_locked();
  /// Stage 2: reference counts, rebuilt once. Loaded only by refcount
  /// operations (retain/release/sweep/ref_count) and the explicit open().
  void ensure_refs_locked();
  /// Indexes one packfile into packs_/index_, reading it through
  /// `through` (the full env, or one tier's view) with the one pack
  /// index reader list_pack_keys also uses: a v2 pack's footer + key
  /// table (ranged), a v1 pack whole. kAbsent and kDamaged are distinct
  /// so the deferred-scan fallback retries only files that genuinely
  /// moved, never re-reads (or promotes) a damaged pack.
  enum class ScanOutcome { kScanned, kAbsent, kDamaged };
  ScanOutcome scan_pack_locked(const std::string& name, io::Env& through);
  /// The one deferred-pack step: pops the newest deferred pack and, unless
  /// it is indexed already, scans it through the cold tier (through the
  /// union view only when it is absent there: promoted since the open
  /// listing). Returns the pack's name, or nullopt when it was indexed
  /// already. The ranged peek reads footer + key table, so indexing a
  /// pack never transfers (let alone promotes) its bulk; only fetching
  /// chunk bytes does.
  std::optional<std::string> scan_next_deferred_locked();
  /// Scans deferred (cold) packs until `key` is indexed or none remain.
  void scan_deferred_until_locked(const ChunkKey& key);
  /// Scans every remaining deferred pack (full-index operations:
  /// compacting sweeps, inspection).
  void drain_deferred_locked();
  /// Rebuilds refcounts from every checkpoint file's key table, each
  /// file read whole where it lies (never promoted) and verified end to
  /// end. Reads nothing when no packfile, damaged or not, exists in
  /// either tier.
  void rebuild_refs_locked();
  /// The single-owner check of sweep() and release() (`op`): throws
  /// std::logic_error while a batch that probed is not yet retained.
  void require_retained_locked(const char* op) const;
  /// The key's entry when an indexed pack holds it, else null.
  [[nodiscard]] const Entry* resident_locked(const ChunkKey& key) const;
  /// Gives each record of `pack` (id `pack_id`) a location unless its
  /// key already has one: the first pack to publish a key holds it.
  void index_records_locked(const Pack& pack, std::int32_t pack_id);
  /// Clears the key's location if, and only if, it points into
  /// `pack_id`; erases the entry when it drops to all-zero.
  void unindex_locked(const ChunkKey& key, std::int32_t pack_id);
  [[nodiscard]] std::string pack_path(const std::string& name) const;
  /// Interned id for pack `name` in pack_ids_ (appending when new):
  /// what locations in index_ carry instead of a string.
  [[nodiscard]] std::int32_t intern_pack_locked(const std::string& name);
  /// Open ranged handle on pack `name`, LRU-cached (chunk reads cluster
  /// by pack during chain resolution, and chain walks alternate between
  /// a handful of packs). Null when the pack vanished.
  io::RandomAccessFile* ranged_pack_locked(const std::string& name);
  /// Inserts `file` into the handle LRU (evicting the stalest slot) and
  /// returns the cached pointer.
  io::RandomAccessFile* cache_pack_handle_locked(
      const std::string& name, std::unique_ptr<io::RandomAccessFile> file);
  void invalidate_pack_handle_locked(const std::string& name);
  /// Sorted ids of canonical checkpoint files currently in dir_.
  [[nodiscard]] std::vector<std::uint64_t> checkpoint_ids_on_disk();

  io::Env& env_;
  /// Non-null when env_ is tiered: enables the staged (hot-first) scan.
  tier::TieredEnv* tiered_ = nullptr;
  const std::string dir_;        ///< checkpoint directory
  const std::string chunk_dir_;  ///< dir_ + "/chunks"

  /// Guards everything below that is not an instrument (see "Single
  /// owner" in the header comment).
  std::mutex mu_;
  bool opened_ = false;
  /// Cold-resident packs not yet scanned (ascending name order).
  std::vector<std::string> deferred_packs_;
  /// True when the open listing named a packfile in either tier, damaged
  /// ones included: only without one may the refcount rebuild skip.
  bool packfile_listed_ = false;
  /// True when the open listing named an earlier version's chunks/REFS
  /// journal, which the next compacting sweep removes.
  bool legacy_refs_listed_ = false;
  bool refs_loaded_ = false;
  /// False when some checkpoint file's refs could not be read: sweeps
  /// are disabled until a complete rebuild succeeds.
  bool refs_complete_ = true;
  std::map<std::string, Pack> packs_;
  /// Interned pack names; index position == the id stored in chunk
  /// locations. Append-only (a deleted pack's id simply goes unused).
  std::vector<std::string> pack_ids_;
  /// The chunk index.
  std::unordered_map<ChunkKey, Entry, KeyHash> index_;
  /// Batches that probed and are not yet retained or destroyed.
  std::uint64_t unretained_batches_ = 0;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  ///< when none passed
  obs::MetricsRegistry& metrics_;
  // The cas.* instruments (see CasStats), changed under mu_ and read
  // without it by snapshot().
  obs::GaugeShare packfiles_;
  obs::GaugeShare chunks_;
  obs::GaugeShare stored_bytes_;
  obs::CounterShare chunk_refs_;
  obs::CounterShare dedup_hits_;
  obs::CounterShare dedup_bytes_;
  obs::CounterShare chunks_written_;
  obs::CounterShare pack_bytes_written_;
  obs::CounterShare packs_deleted_;
  obs::CounterShare packs_compacted_;
  obs::CounterShare chunks_swept_;
  obs::CounterShare bytes_swept_;
  obs::CounterShare damaged_packs_;
  obs::CounterShare pack_handle_evictions_;
  /// Small LRU of open ranged pack handles (chain resolution alternates
  /// between the parent chain's packs; one slot thrashed).
  static constexpr std::size_t kPackHandleSlots = 4;
  struct CachedPackHandle {
    std::string name;
    std::unique_ptr<io::RandomAccessFile> file;
    std::uint64_t last_used = 0;
  };
  std::array<CachedPackHandle, kPackHandleSlots> pack_handles_;
  std::uint64_t handle_tick_ = 0;
};

/// Canonical packfile name for an epoch: "pack-0000000042.qpak".
std::string pack_file_name(std::uint64_t epoch);
std::optional<std::uint64_t> parse_pack_file_name(const std::string& name);

/// The chunk keys of every record in the packfile at `path`, read as
/// the store's open reads a pack: a v2 pack's footer + key table by
/// ranged reads (table CRC32C verified), a v1 pack whole (footer CRC64
/// verified). Lets the tier migration engine test packfile coldness
/// without transferring the pack's bulk. Throws std::runtime_error on
/// damage or absence.
std::vector<ChunkKey> list_pack_keys(io::Env& env, const std::string& path);

}  // namespace qnn::ckpt
