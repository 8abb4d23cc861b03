#include "ckpt/cas.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "ckpt/manifest.hpp"
#include "tier/tiered_env.hpp"
#include "util/crc.hpp"
#include "util/strings.hpp"

namespace qnn::ckpt {

namespace {
constexpr char kPackMagic[4] = {'Q', 'P', 'A', 'K'};
constexpr char kPackFooterMagic[4] = {'K', 'A', 'P', 'Q'};
constexpr std::uint16_t kPackVersion = 2;
constexpr std::uint16_t kPackVersionV1 = 1;
constexpr std::size_t kPackHeaderBytes = 4 + 2 + 2 + 8 + 4;    // v1 layout
constexpr std::size_t kPackHeaderV2Bytes = 4 + 2 + 2 + 8;      // no count
constexpr std::size_t kPackFooterBytes = 8 + 4;                // v1 layout
// n_records, table_offset, crc32c(table), crc64, magic
constexpr std::size_t kPackFooterV2Bytes = 4 + 8 + 4 + 8 + 4;
// digest, raw_crc, raw_len, codec, enc_len, enc_crc
constexpr std::size_t kRecordHeaderBytes = 1 + 4 + 8 + 1 + 8 + 4;
// one key-table row: record header fields + u64 offset
constexpr std::size_t kKeyRowBytes = kRecordHeaderBytes + 8;

bool check_magic(util::ByteSpan in, std::size_t offset,
                 const char (&magic)[4]) {
  return offset + 4 <= in.size() &&
         std::memcmp(in.data() + offset, magic, 4) == 0;
}

/// One record as parsed back out of a packfile (either version).
struct ParsedRecord {
  ChunkKey key;
  codec::CodecId codec = codec::CodecId::kRaw;
  std::uint32_t enc_crc = 0;
  std::uint64_t offset = 0;  ///< of the encoded bytes within the pack
  std::uint64_t enc_len = 0;
};

/// Parses the fields shared by a record header and a key-table row.
ParsedRecord parse_record_fields(util::ByteSpan span, std::size_t& off,
                                 bool& digest_ok) {
  ParsedRecord r;
  const auto digest = util::get_le<std::uint8_t>(span, off);
  r.key.crc = util::get_le<std::uint32_t>(span, off);
  r.key.len = util::get_le<std::uint64_t>(span, off);
  r.codec = static_cast<codec::CodecId>(util::get_le<std::uint8_t>(span, off));
  r.enc_len = util::get_le<std::uint64_t>(span, off);
  r.enc_crc = util::get_le<std::uint32_t>(span, off);
  digest_ok = digest == kChunkDigestCrc32c;
  return r;
}

/// Parses a v2 key table (rows only; framing already validated).
std::optional<std::vector<ParsedRecord>> parse_key_table(
    util::ByteSpan table, std::uint64_t n_records, std::uint64_t body_end) {
  std::vector<ParsedRecord> records;
  records.reserve(n_records);
  std::size_t off = 0;
  for (std::uint64_t i = 0; i < n_records; ++i) {
    bool digest_ok = false;
    ParsedRecord r = parse_record_fields(table, off, digest_ok);
    r.offset = util::get_le<std::uint64_t>(table, off);
    if (!digest_ok || r.offset < kPackHeaderV2Bytes ||
        r.offset > body_end || r.enc_len > body_end - r.offset) {
      return std::nullopt;
    }
    records.push_back(r);
  }
  return records;
}

/// THE full packfile reader: validates framing + footer CRC64 and walks
/// the records, for both pack versions. nullopt on any damage.
std::optional<std::vector<ParsedRecord>> parse_pack(util::ByteSpan span) {
  if (!check_magic(span, 0, kPackMagic) ||
      !check_magic(span, span.size() - 4, kPackFooterMagic)) {
    return std::nullopt;
  }
  std::size_t off = 4;
  std::uint16_t version = 0;
  try {
    version = util::get_le<std::uint16_t>(span, off);
    (void)util::get_le<std::uint16_t>(span, off);  // reserved
    (void)util::get_le<std::uint64_t>(span, off);  // epoch
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }

  if (version == kPackVersionV1) {
    // Legacy layout: u32 n_records after the header, records walked
    // serially, 12-byte footer with whole-file CRC64.
    if (span.size() < kPackHeaderBytes + kPackFooterBytes) {
      return std::nullopt;
    }
    {
      std::size_t foff = span.size() - kPackFooterBytes;
      const auto stored = util::get_le<std::uint64_t>(span, foff);
      if (stored != util::crc64(span.first(span.size() - kPackFooterBytes))) {
        return std::nullopt;
      }
    }
    std::vector<ParsedRecord> records;
    try {
      const auto n_records = util::get_le<std::uint32_t>(span, off);
      for (std::uint32_t i = 0; i < n_records; ++i) {
        bool digest_ok = false;
        ParsedRecord r = parse_record_fields(span, off, digest_ok);
        r.offset = off;
        if (!digest_ok ||
            r.enc_len > span.size() - kPackFooterBytes - off) {
          return std::nullopt;
        }
        off += r.enc_len;
        records.push_back(r);
      }
      if (off != span.size() - kPackFooterBytes) {
        return std::nullopt;
      }
    } catch (const std::out_of_range&) {
      return std::nullopt;
    }
    return records;
  }

  if (version != kPackVersion ||
      span.size() < kPackHeaderV2Bytes + kPackFooterV2Bytes) {
    return std::nullopt;
  }
  try {
    std::size_t foff = span.size() - kPackFooterV2Bytes;
    const auto n_records = util::get_le<std::uint32_t>(span, foff);
    const auto table_offset = util::get_le<std::uint64_t>(span, foff);
    const auto table_crc = util::get_le<std::uint32_t>(span, foff);
    const auto stored_crc64 = util::get_le<std::uint64_t>(span, foff);
    const std::uint64_t table_size =
        static_cast<std::uint64_t>(n_records) * kKeyRowBytes;
    if (table_offset < kPackHeaderV2Bytes ||
        table_offset + table_size != span.size() - kPackFooterV2Bytes) {
      return std::nullopt;
    }
    // CRC64 covers everything up to (and excluding) the crc64 field.
    if (stored_crc64 != util::crc64(span.first(span.size() - 12))) {
      return std::nullopt;
    }
    const util::ByteSpan table = span.subspan(table_offset, table_size);
    if (util::crc32c(table) != table_crc) {
      return std::nullopt;
    }
    return parse_key_table(table, n_records, table_offset);
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

/// Ranged v2 index read: footer + key table preads only. Returns the
/// records and sets `file_bytes`. nullopt on damage; `legacy_v1` is set
/// when the pack is a v1 file that needs the whole-file fallback.
std::optional<std::vector<ParsedRecord>> read_pack_index_ranged(
    io::RandomAccessFile& file, std::uint64_t& file_bytes, bool& legacy_v1) {
  legacy_v1 = false;
  file_bytes = file.size();
  if (file_bytes < kPackHeaderV2Bytes + kPackFooterV2Bytes) {
    return std::nullopt;
  }
  const Bytes head = file.pread(0, kPackHeaderV2Bytes);
  if (head.size() != kPackHeaderV2Bytes || !check_magic(head, 0, kPackMagic)) {
    return std::nullopt;
  }
  {
    std::size_t off = 4;
    const auto version = util::get_le<std::uint16_t>(head, off);
    if (version == kPackVersionV1) {
      legacy_v1 = true;
      return std::nullopt;
    }
    if (version != kPackVersion) {
      return std::nullopt;
    }
  }
  const Bytes footer =
      file.pread(file_bytes - kPackFooterV2Bytes, kPackFooterV2Bytes);
  if (footer.size() != kPackFooterV2Bytes ||
      !check_magic(footer, footer.size() - 4, kPackFooterMagic)) {
    return std::nullopt;
  }
  try {
    std::size_t off = 0;
    const auto n_records = util::get_le<std::uint32_t>(footer, off);
    const auto table_offset = util::get_le<std::uint64_t>(footer, off);
    const auto table_crc = util::get_le<std::uint32_t>(footer, off);
    const std::uint64_t table_size =
        static_cast<std::uint64_t>(n_records) * kKeyRowBytes;
    if (table_offset < kPackHeaderV2Bytes ||
        table_offset + table_size != file_bytes - kPackFooterV2Bytes) {
      return std::nullopt;
    }
    const Bytes table = file.pread(table_offset, table_size);
    if (table.size() != table_size || util::crc32c(table) != table_crc) {
      return std::nullopt;
    }
    return parse_key_table(table, n_records, table_offset);
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

}  // namespace

namespace detail {

/// THE packfile writer: batch commits and sweep compaction both stream
/// through here, so the on-disk framing exists in exactly one place.
/// Records append as produced (atomic handle: invisible until finish);
/// the key table and footer land at finish(). Destroying an unfinished
/// stream aborts it — nothing ever appears on disk.
class PackStream {
 public:
  PackStream(io::Env& env, const std::string& path, std::uint64_t epoch)
      : file_(env.new_writable(path, io::WriteMode::kAtomic)) {
    Bytes head;
    head.insert(head.end(), kPackMagic, kPackMagic + 4);
    util::put_le<std::uint16_t>(head, kPackVersion);
    util::put_le<std::uint16_t>(head, 0);  // reserved
    util::put_le<std::uint64_t>(head, epoch);
    put(head);
  }

  /// Appends one record (header + encoded bytes); returns the absolute
  /// offset of the encoded bytes within the pack.
  std::uint64_t append_record(const ChunkKey& key, codec::CodecId codec,
                              std::uint32_t enc_crc, ByteSpan encoded) {
    Bytes header;
    put_record_fields(header, key, codec, encoded.size(), enc_crc);
    put(header);
    const std::uint64_t offset = off_;
    put(encoded);
    // Mirror the row into the (small) tail table as we go.
    put_record_fields(table_, key, codec, encoded.size(), enc_crc);
    util::put_le<std::uint64_t>(table_, offset);
    ++n_records_;
    return offset;
  }

  /// Key table + footer + atomic install. Returns total file bytes.
  std::uint64_t finish() {
    const std::uint64_t table_offset = off_;
    put(table_);
    Bytes tail;
    util::put_le<std::uint32_t>(tail, n_records_);
    util::put_le<std::uint64_t>(tail, table_offset);
    util::put_le<std::uint32_t>(tail, util::crc32c(table_));
    put(tail);
    // The CRC64 field itself (and the closing magic) are not covered.
    Bytes closing;
    util::put_le<std::uint64_t>(closing, crc_.value());
    closing.insert(closing.end(), kPackFooterMagic, kPackFooterMagic + 4);
    file_->append(closing);
    off_ += closing.size();
    file_->close();
    return off_;
  }

 private:
  static void put_record_fields(Bytes& out, const ChunkKey& key,
                                codec::CodecId codec, std::uint64_t enc_len,
                                std::uint32_t enc_crc) {
    util::put_le<std::uint8_t>(out, kChunkDigestCrc32c);
    util::put_le<std::uint32_t>(out, key.crc);
    util::put_le<std::uint64_t>(out, key.len);
    util::put_le<std::uint8_t>(out, static_cast<std::uint8_t>(codec));
    util::put_le<std::uint64_t>(out, enc_len);
    util::put_le<std::uint32_t>(out, enc_crc);
  }

  void put(ByteSpan data) {
    crc_.update(data);
    file_->append(data);
    off_ += data.size();
  }

  std::unique_ptr<io::WritableFile> file_;
  util::Crc64 crc_;
  Bytes table_;
  std::uint32_t n_records_ = 0;
  std::uint64_t off_ = 0;
};

}  // namespace detail

std::string pack_file_name(std::uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "pack-%010llu.qpak",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::optional<std::uint64_t> parse_pack_file_name(const std::string& name) {
  constexpr const char* kPrefix = "pack-";
  constexpr const char* kSuffix = ".qpak";
  if (!util::starts_with(name, kPrefix) || name.size() != 20 ||
      name.compare(15, 5, kSuffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t id = 0;
  for (std::size_t i = 5; i < 15; ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return std::nullopt;
    }
    id = id * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return id;
}

// ---------------------------------------------------------------------------
// Batch (ChunkSink)
// ---------------------------------------------------------------------------

ChunkStore::Batch::Batch(ChunkStore& store, std::uint64_t epoch)
    : store_(store), epoch_(epoch) {}

ChunkStore::Batch::~Batch() { store_.unpin(refs_); }

bool ChunkStore::Batch::contains(const ChunkKey& key) {
  refs_.push_back(key);
  // The digest in `key` was computed by the encode pipeline before this
  // call — the probe itself is the only synchronised step, and it takes
  // exactly one shard lock (never mu_ once the store is open).
  store_.ensure_open();
  // Pin immediately, atomically with the probe: from this moment the
  // in-flight file counts on the chunk, and no sweep may reap it until
  // the batch dies.
  const bool resident =
      store_.index_.pin_and_probe(key) || staged_index_.contains(key);
  store_.chunk_refs_.add();
  if (resident) {
    store_.dedup_hits_.add();
    store_.dedup_bytes_.add(key.len);
  }
  return resident;
}

void ChunkStore::Batch::put(const ChunkKey& key, codec::CodecId codec,
                            ByteSpan encoded) {
  if (staged_index_.contains(key)) {
    return;  // duplicate chunk within one file: store one record
  }
  if (!stream_) {
    // First fresh chunk: open the packfile stream. The handle is
    // atomic, so nothing is visible until commit() — and an abandoned
    // batch leaves no trace.
    stream_ = std::make_unique<detail::PackStream>(
        store_.env_, store_.chunk_dir_ + "/" + pack_name(), epoch_);
  }
  // A raw record is the chunk itself, whose CRC its key already holds.
  const std::uint32_t enc_crc =
      codec == codec::CodecId::kRaw && encoded.size() == key.len
          ? key.crc
          : util::crc32c(encoded);
  const std::uint64_t offset =
      stream_->append_record(key, codec, enc_crc, encoded);
  staged_index_.emplace(key, records_.size());
  records_.push_back(StagedRecord{.key = key,
                                  .codec = codec,
                                  .enc_crc = enc_crc,
                                  .offset = offset,
                                  .enc_len = encoded.size()});
}

std::string ChunkStore::Batch::pack_name() const {
  return pack_file_name(epoch_);
}

void ChunkStore::Batch::commit() {
  if (!stream_ || committed_) {
    return;
  }
  pack_bytes_ = stream_->finish();
  stream_.reset();
  committed_ = true;
  store_.pack_bytes_written_.add(pack_bytes_);
}

// ---------------------------------------------------------------------------
// ChunkStore
// ---------------------------------------------------------------------------

ChunkStore::ChunkStore(io::Env& env, std::string dir,
                       obs::MetricsRegistry* metrics)
    : env_(env),
      tiered_(dynamic_cast<tier::TieredEnv*>(&env)),
      dir_(std::move(dir)),
      chunk_dir_(dir_ + "/chunks"),
      metrics_(obs::shared_or_own(metrics, own_metrics_)),
      packfiles_(metrics_.gauge("cas.packfiles")),
      chunks_(metrics_.gauge("cas.chunks")),
      stored_bytes_(metrics_.gauge("cas.stored_bytes")),
      chunk_refs_(metrics_.counter("cas.chunk_refs")),
      dedup_hits_(metrics_.counter("cas.dedup_hits")),
      dedup_bytes_(metrics_.counter("cas.dedup_bytes")),
      chunks_written_(metrics_.counter("cas.chunks_written")),
      pack_bytes_written_(metrics_.counter("cas.pack_bytes_written")),
      packs_deleted_(metrics_.counter("cas.packs_deleted")),
      packs_compacted_(metrics_.counter("cas.packs_compacted")),
      chunks_swept_(metrics_.counter("cas.chunks_swept")),
      bytes_swept_(metrics_.counter("cas.bytes_swept")),
      damaged_packs_(metrics_.counter("cas.damaged_packs")),
      pack_handle_evictions_(metrics_.counter("cas.pack_handle_evictions")) {}

std::string ChunkStore::pack_path(const std::string& name) const {
  return chunk_dir_ + "/" + name;
}

std::unique_ptr<ChunkStore::Batch> ChunkStore::begin_batch(
    std::uint64_t epoch) {
  return std::unique_ptr<Batch>(new Batch(*this, epoch));
}

void ChunkStore::publish(const Batch& batch) {
  if (batch.records_.empty()) {
    return;
  }
  std::lock_guard lock(mu_);
  ensure_open_locked();
  const std::string name = batch.pack_name();
  const std::int32_t pack_id = intern_pack_locked(name);
  // The tiered write scrubbed any stale cold copy of this epoch, so a
  // matching deferred entry is dead — drop it before it can shadow the
  // fresh records with a lazy scan of vanished bytes.
  std::erase(deferred_packs_, name);
  // Id reallocation after a crash can reuse an epoch: the new packfile
  // atomically replaced the stranded one on disk, so drop every stale
  // index entry before publishing the replacement records.
  if (const auto old = packs_.find(name); old != packs_.end()) {
    for (const Record& r : old->second.records) {
      if (index_.erase_location_if(r.key, pack_id)) {
        chunks_.add(-1);
      }
    }
    stored_bytes_.add(-static_cast<std::int64_t>(old->second.file_bytes));
    packfiles_.add(-1);
    packs_.erase(old);
  }
  Pack pack;
  pack.records.reserve(batch.records_.size());
  for (const Batch::StagedRecord& r : batch.records_) {
    pack.records.push_back(Record{.key = r.key,
                                  .codec = r.codec,
                                  .enc_crc = r.enc_crc,
                                  .offset = r.offset,
                                  .enc_len = r.enc_len});
  }
  chunks_written_.add(pack.records.size());
  pack.file_bytes = batch.pack_bytes_;
  stored_bytes_.add(static_cast<std::int64_t>(pack.file_bytes));
  packfiles_.add(1);
  for (std::size_t i = 0; i < pack.records.size(); ++i) {
    if (index_.set_location_if_absent(pack.records[i].key, pack_id,
                                      static_cast<std::uint32_t>(i))) {
      chunks_.add(1);
    }
  }
  invalidate_pack_handle_locked(name);  // re-published epoch
  packs_[name] = std::move(pack);
}

bool ChunkStore::contains(const ChunkKey& key) {
  ensure_open();
  return index_.resident(key);
}

io::RandomAccessFile* ChunkStore::ranged_pack_locked(const std::string& name) {
  ++handle_tick_;
  for (CachedPackHandle& slot : pack_handles_) {
    if (slot.file != nullptr && slot.name == name) {
      slot.last_used = handle_tick_;
      return slot.file.get();
    }
  }
  auto file = env_.open_ranged(pack_path(name));
  if (!file) {
    return nullptr;
  }
  return cache_pack_handle_locked(name, std::move(file));
}

io::RandomAccessFile* ChunkStore::cache_pack_handle_locked(
    const std::string& name, std::unique_ptr<io::RandomAccessFile> file) {
  ++handle_tick_;
  // Reuse the slot already holding this pack (re-scan), else the first
  // empty slot, else evict the least recently used handle.
  CachedPackHandle* victim = nullptr;
  for (CachedPackHandle& slot : pack_handles_) {
    if (slot.file != nullptr && slot.name == name) {
      victim = &slot;
      break;
    }
    if (slot.file == nullptr) {
      if (victim == nullptr || victim->file != nullptr) {
        victim = &slot;
      }
    } else if (victim == nullptr || (victim->file != nullptr &&
                                     slot.last_used < victim->last_used)) {
      victim = &slot;
    }
  }
  if (victim->file != nullptr && victim->name != name) {
    pack_handle_evictions_.add();
  }
  victim->name = name;
  victim->file = std::move(file);
  victim->last_used = handle_tick_;
  return victim->file.get();
}

void ChunkStore::invalidate_pack_handle_locked(const std::string& name) {
  for (CachedPackHandle& slot : pack_handles_) {
    if (slot.file != nullptr && slot.name == name) {
      slot.file.reset();
      slot.name.clear();
      slot.last_used = 0;
    }
  }
}

Bytes ChunkStore::get(const ChunkKey& key) {
  std::lock_guard lock(mu_);
  ensure_open_locked();
  auto loc = index_.location(key);
  if (!loc && !deferred_packs_.empty()) {
    // The chunk may live in a cold pack the staged open deferred:
    // index cold packs (ranged peek of footer + key table, no bulk
    // transfer) until it shows up.
    scan_deferred_until_locked(key);
    loc = index_.location(key);
  }
  if (!loc) {
    throw std::runtime_error("chunk " + chunk_key_name(key) +
                             ": not in store");
  }
  // Locations are stable while mu_ is held (publish/sweep/compaction
  // all run under it), so the id -> name -> record resolution cannot
  // race the lookup above.
  const std::string& pack_name =
      pack_ids_.at(static_cast<std::size_t>(loc->pack));
  const Record& record = packs_.at(pack_name).records[loc->record];
  io::RandomAccessFile* pack = ranged_pack_locked(pack_name);
  if (pack == nullptr) {
    throw std::runtime_error("chunk " + chunk_key_name(key) +
                             ": packfile missing: " + pack_name);
  }
  // Ranged resolution: exactly this record's encoded bytes move, not
  // the packfile. Integrity comes from the record CRC32C + the content
  // key, so skipping the whole-file CRC64 gives up nothing.
  Bytes enc = pack->pread(record.offset, record.enc_len);
  if (enc.size() != record.enc_len) {
    throw std::runtime_error("chunk " + chunk_key_name(key) +
                             ": packfile truncated: " + pack_name);
  }
  const std::uint32_t enc_crc = util::crc32c(enc);
  if (enc_crc != record.enc_crc) {
    throw std::runtime_error("chunk " + chunk_key_name(key) +
                             ": encoded CRC mismatch in " + pack_name);
  }
  // A raw record is the chunk itself: its one CRC is checked against the
  // key as well, and the pread buffer is returned without a decode copy.
  const bool raw_record = record.codec == codec::CodecId::kRaw;
  Bytes raw = raw_record ? std::move(enc)
                         : codec::decode(record.codec, enc, key.len);
  if (raw.size() != key.len ||
      (raw_record ? enc_crc : util::crc32c(raw)) != key.crc) {
    throw std::runtime_error("chunk " + chunk_key_name(key) +
                             ": content digest mismatch in " + pack_name);
  }
  return raw;
}

void ChunkStore::retain(const std::vector<ChunkKey>& keys) {
  if (keys.empty()) {
    return;
  }
  std::lock_guard lock(mu_);
  ensure_refs_locked();
  for (const ChunkKey& key : keys) {
    index_.add_ref(key);
  }
}

void ChunkStore::release(const std::vector<ChunkKey>& keys) {
  if (keys.empty()) {
    return;
  }
  std::lock_guard lock(mu_);
  ensure_refs_locked();
  for (const ChunkKey& key : keys) {
    index_.release_ref(key);
  }
}

std::uint64_t ChunkStore::ref_count(const ChunkKey& key) {
  std::lock_guard lock(mu_);
  ensure_refs_locked();
  return index_.ref_count(key);
}

std::uint64_t ChunkStore::sweep(bool compact) {
  std::lock_guard lock(mu_);
  ensure_open_locked();
  if (compact) {
    // The no-dead-chunk-survives guarantee spans both tiers, so the
    // startup (compacting) sweep must see every pack. Plain sweeps run
    // per install and stay hot-only: a cold pack's records can only go
    // dead when their referents are deleted, and the next startup
    // sweep reaps them.
    drain_deferred_locked();
  }
  if (packs_.empty()) {
    return 0;  // nothing content-addressed: stay zero-cost
  }
  ensure_refs_locked();
  if (!refs_complete_) {
    return 0;  // liveness unknowable: nothing may die
  }
  std::uint64_t reclaimed = 0;
  std::vector<std::string> names;
  names.reserve(packs_.size());
  for (const auto& [name, _] : packs_) {
    names.push_back(name);
  }
  for (const std::string& name : names) {
    Pack& pack = packs_.at(name);
    const std::int32_t pack_id = intern_pack_locked(name);
    // Classify every record under the whole-index lock: liveness check
    // and (for a fully-dead pack) location erase happen under ONE hold,
    // so a concurrent pin_and_probe either lands before (record live,
    // pack survives) or after (location gone, probe misses and the
    // chunk is re-stored) — never between check and erase, where it
    // would claim residency in a file about to be unlinked.
    std::vector<Record> live;
    std::vector<bool> was_live(pack.records.size(), false);
    std::uint64_t dead_bytes = 0;
    std::size_t dead_records = 0;
    bool whole_pack_dead = false;
    {
      ShardedChunkIndex::AllShards all(index_);
      for (std::size_t i = 0; i < pack.records.size(); ++i) {
        const Record& r = pack.records[i];
        if (all.is_live(r.key)) {
          was_live[i] = true;
          live.push_back(r);
        } else {
          dead_bytes += r.enc_len;
          ++dead_records;
        }
      }
      if (dead_records == 0) {
        continue;
      }
      if (live.empty()) {
        // Every record is dead: erase the locations BEFORE the file
        // vanishes (still under the all-shards hold).
        for (const Record& r : pack.records) {
          if (all.erase_location_if(r.key, pack_id)) {
            chunks_.add(-1);
          }
        }
        whole_pack_dead = true;
      }
    }
    if (whole_pack_dead) {
      env_.remove_file(pack_path(name));
      stored_bytes_.add(-static_cast<std::int64_t>(pack.file_bytes));
      reclaimed += pack.file_bytes;
      packs_deleted_.add();
      chunks_swept_.add(dead_records);
      bytes_swept_.add(dead_bytes);
      packfiles_.add(-1);
      invalidate_pack_handle_locked(name);
      packs_.erase(name);
      continue;
    }
    if (!compact) {
      continue;  // mixed pack: deferred to the next compacting sweep
    }
    // Mixed pack: rewrite it atomically with only the live records —
    // streamed record by record through the one packfile writer, each
    // record pread from the old pack (never the whole file at once).
    // Shard locks are NOT held during the streaming, so probes keep
    // running; the install below re-validates against them.
    io::RandomAccessFile* old_pack = ranged_pack_locked(name);
    if (old_pack == nullptr) {
      continue;  // vanished underneath us; the next open re-scans
    }
    std::vector<Record> rewritten;
    rewritten.reserve(live.size());
    bool ok = true;
    std::uint64_t new_bytes = 0;
    try {
      detail::PackStream out(env_, pack_path(name),
                             parse_pack_file_name(name).value_or(0));
      for (const Record& r : live) {
        const Bytes enc = old_pack->pread(r.offset, r.enc_len);
        if (enc.size() != r.enc_len || util::crc32c(enc) != r.enc_crc) {
          ok = false;  // damaged record: abandon the rewrite
          break;
        }
        Record moved = r;
        moved.offset = out.append_record(r.key, r.codec, r.enc_crc, enc);
        rewritten.push_back(moved);
      }
      if (ok) {
        // Install fence: while the rewrite streamed, a dedup probe may
        // have pinned a record we judged dead — installing a pack
        // without it would strand that probe's reference. Re-check the
        // dead set under the all-shards lock and hold it across
        // finish() + index updates; if anything came back to life,
        // abandon the rewrite (the unfinished stream installs nothing).
        ShardedChunkIndex::AllShards all(index_);
        for (std::size_t i = 0; i < pack.records.size() && ok; ++i) {
          if (!was_live[i] && all.is_live(pack.records[i].key)) {
            ok = false;  // resurrected mid-rewrite: try again next sweep
          }
        }
        if (ok) {
          new_bytes = out.finish();  // atomic replace
          for (std::size_t i = 0; i < pack.records.size(); ++i) {
            if (!was_live[i] &&
                all.erase_location_if(pack.records[i].key, pack_id)) {
              chunks_.add(-1);
            }
          }
          stored_bytes_.add(-static_cast<std::int64_t>(pack.file_bytes) +
                            static_cast<std::int64_t>(new_bytes));
          reclaimed += pack.file_bytes - new_bytes;
          packs_compacted_.add();
          chunks_swept_.add(dead_records);
          bytes_swept_.add(dead_bytes);
          pack.file_bytes = new_bytes;
          pack.records = std::move(rewritten);
          // Re-point index entries at the rewritten record positions.
          for (std::size_t i = 0; i < pack.records.size(); ++i) {
            all.repoint_record(pack.records[i].key, pack_id,
                               static_cast<std::uint32_t>(i));
          }
        }
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (ok) {
      invalidate_pack_handle_locked(name);
    }
  }
  return reclaimed;
}

CasStats ChunkStore::snapshot() const {
  return {.packfiles = packfiles_.value(),
          .chunks = chunks_.value(),
          .stored_bytes = stored_bytes_.value(),
          .chunk_refs = chunk_refs_.value(),
          .dedup_hits = dedup_hits_.value(),
          .dedup_bytes = dedup_bytes_.value(),
          .chunks_written = chunks_written_.value(),
          .pack_bytes_written = pack_bytes_written_.value(),
          .packs_deleted = packs_deleted_.value(),
          .packs_compacted = packs_compacted_.value(),
          .chunks_swept = chunks_swept_.value(),
          .bytes_swept = bytes_swept_.value(),
          .damaged_packs = damaged_packs_.value(),
          .pack_handle_evictions = pack_handle_evictions_.value()};
}

CasStats ChunkStore::stats() {
  std::lock_guard lock(mu_);
  ensure_open_locked();
  drain_deferred_locked();  // complete levels (inspection path)
  return snapshot();
}

std::vector<ChunkKey> ChunkStore::pack_keys(const std::string& name) {
  std::lock_guard lock(mu_);
  ensure_open_locked();
  auto it = packs_.find(name);
  if (it == packs_.end() && !deferred_packs_.empty()) {
    drain_deferred_locked();
    it = packs_.find(name);
  }
  if (it == packs_.end()) {
    return {};
  }
  std::vector<ChunkKey> keys;
  keys.reserve(it->second.records.size());
  for (const Record& r : it->second.records) {
    keys.push_back(r.key);
  }
  return keys;
}

std::vector<std::string> ChunkStore::pack_names() {
  std::lock_guard lock(mu_);
  ensure_open_locked();
  drain_deferred_locked();  // complete listing (inspection path)
  std::vector<std::string> names;
  names.reserve(packs_.size());
  for (const auto& [name, _] : packs_) {
    names.push_back(name);
  }
  return names;
}

void ChunkStore::open() {
  std::lock_guard lock(mu_);
  ensure_refs_locked();  // both stages: index and refcounts
}

bool ChunkStore::has_packfiles() {
  std::lock_guard lock(mu_);
  ensure_open_locked();
  return !packs_.empty() || !deferred_packs_.empty();
}

void ChunkStore::unpin(const std::vector<ChunkKey>& keys) {
  // Shard locks only — a dying batch never contends with mu_ holders.
  for (const ChunkKey& key : keys) {
    index_.unpin(key);
  }
}

std::vector<std::uint64_t> ChunkStore::checkpoint_ids_on_disk() {
  std::vector<std::uint64_t> ids;
  for (const std::string& name : env_.list_dir(dir_)) {
    if (const auto id = parse_checkpoint_file_name(name)) {
      ids.push_back(*id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ChunkStore::ensure_open() {
  if (opened_fast_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard lock(mu_);
  ensure_open_locked();
}

std::int32_t ChunkStore::intern_pack_locked(const std::string& name) {
  for (std::size_t i = 0; i < pack_ids_.size(); ++i) {
    if (pack_ids_[i] == name) {
      return static_cast<std::int32_t>(i);
    }
  }
  pack_ids_.push_back(name);
  return static_cast<std::int32_t>(pack_ids_.size() - 1);
}

void ChunkStore::ensure_open_locked() {
  if (opened_) {
    return;
  }
  opened_ = true;
  if (tiered_ != nullptr) {
    // Staged scan: index the hot packs now (a ranged footer + key-table
    // read each, sufficient for every hot-resident checkpoint); record
    // cold packs for the lazy scan so opening the store never touches
    // the capacity tier.
    for (const std::string& name : tiered_->hot().list_dir(chunk_dir_)) {
      if (parse_pack_file_name(name)) {
        packfile_listed_ = true;
        scan_pack_locked(name, tiered_->hot());
      }
    }
    for (const std::string& name : tiered_->cold().list_dir(chunk_dir_)) {
      if (parse_pack_file_name(name)) {
        packfile_listed_ = true;
        if (!packs_.contains(name)) {
          deferred_packs_.push_back(name);
        }
      }
    }
    std::sort(deferred_packs_.begin(), deferred_packs_.end());
  } else {
    for (const std::string& name : env_.list_dir(chunk_dir_)) {
      if (parse_pack_file_name(name)) {
        packfile_listed_ = true;
        scan_pack_locked(name, env_);
      }
    }
  }
  // Published AFTER the index is populated: probes that see the flag
  // see the scanned locations too (release/acquire pair).
  opened_fast_.store(true, std::memory_order_release);
}

void ChunkStore::ensure_refs_locked() {
  ensure_open_locked();
  if (refs_loaded_) {
    return;
  }
  refs_loaded_ = true;
  rebuild_refs_locked();
}

ChunkStore::ScanOutcome ChunkStore::scan_pack_locked(const std::string& name,
                                                     io::Env& through) {
  auto file = through.open_ranged(pack_path(name));
  if (!file) {
    return ScanOutcome::kAbsent;
  }
  std::uint64_t file_bytes = 0;
  bool legacy_v1 = false;
  auto parsed = read_pack_index_ranged(*file, file_bytes, legacy_v1);
  if (!parsed && legacy_v1) {
    // v1 pack: no tail table — whole-file parse, like the old reader.
    const Bytes data = file->pread(0, file_bytes);
    if (data.size() == file_bytes) {
      parsed = parse_pack(data);
    }
  }
  if (!parsed) {
    // Leave damaged packfiles on disk: their chunks are unusable, but
    // deleting bytes we cannot enumerate could destroy forensic value.
    damaged_packs_.add();
    return ScanOutcome::kDamaged;
  }
  Pack pack;
  pack.records.reserve(parsed->size());
  for (const ParsedRecord& r : *parsed) {
    pack.records.push_back(Record{.key = r.key,
                                  .codec = r.codec,
                                  .enc_crc = r.enc_crc,
                                  .offset = r.offset,
                                  .enc_len = r.enc_len});
  }
  pack.file_bytes = file_bytes;
  stored_bytes_.add(static_cast<std::int64_t>(pack.file_bytes));
  packfiles_.add(1);
  const std::int32_t pack_id = intern_pack_locked(name);
  for (std::size_t i = 0; i < pack.records.size(); ++i) {
    if (index_.set_location_if_absent(pack.records[i].key, pack_id,
                                      static_cast<std::uint32_t>(i))) {
      chunks_.add(1);
    }
  }
  packs_[name] = std::move(pack);
  // Keep the handle as the read cache: a get() that triggered this scan
  // (lazy cold-pack indexing) serves its chunk with one more pread.
  cache_pack_handle_locked(name, std::move(file));
  return ScanOutcome::kScanned;
}

void ChunkStore::scan_deferred_until_locked(const ChunkKey& key) {
  while (!deferred_packs_.empty() && !index_.resident(key)) {
    // Newest first: a missing chunk most likely lives in the pack of a
    // recently demoted checkpoint. Peek reads (footer + key table) go
    // through the cold tier so indexing never promotes a pack the
    // caller may not even need.
    const std::string name = deferred_packs_.back();
    deferred_packs_.pop_back();
    if (packs_.contains(name)) {
      continue;  // re-published under the same epoch meanwhile
    }
    io::Env& through = tiered_ ? tiered_->cold() : env_;
    if (scan_pack_locked(name, through) == ScanOutcome::kAbsent) {
      // Promoted since the open listing: retry through the union view.
      // Only genuine absence falls back — a damaged pack must not be
      // re-read (or promoted hot) and double-counted.
      scan_pack_locked(name, env_);
    }
    if (index_.resident(key)) {
      // This pack is the one the caller needs. With read-through
      // promotion on, pull it hot via a streaming copy (bounded
      // memory) so the NEXT access is a hot hit; the current get()
      // still resolves its chunk with a ranged cold pread either way.
      // The scan's cached handle points at the cold copy — drop it so
      // the next read opens the promoted file.
      if (tiered_ != nullptr && tiered_->promote_on_read()) {
        invalidate_pack_handle_locked(name);
        tiered_->promote_file(pack_path(name));  // best effort
      }
    }
  }
}

void ChunkStore::drain_deferred_locked() {
  while (!deferred_packs_.empty()) {
    const std::string name = deferred_packs_.back();
    deferred_packs_.pop_back();
    if (packs_.contains(name)) {
      continue;
    }
    io::Env& through = tiered_ ? tiered_->cold() : env_;
    if (scan_pack_locked(name, through) == ScanOutcome::kAbsent) {
      scan_pack_locked(name, env_);
    }
  }
}

std::vector<ChunkKey> list_pack_keys(ByteSpan pack) {
  const auto parsed = parse_pack(pack);
  if (!parsed) {
    throw std::runtime_error("damaged packfile");
  }
  std::vector<ChunkKey> keys;
  keys.reserve(parsed->size());
  for (const ParsedRecord& r : *parsed) {
    keys.push_back(r.key);
  }
  return keys;
}

std::vector<ChunkKey> list_pack_keys(io::Env& env, const std::string& path) {
  auto file = env.open_ranged(path);
  if (!file) {
    throw std::runtime_error("packfile missing: " + path);
  }
  std::uint64_t file_bytes = 0;
  bool legacy_v1 = false;
  auto parsed = read_pack_index_ranged(*file, file_bytes, legacy_v1);
  if (!parsed && legacy_v1) {
    const Bytes data = file->pread(0, file_bytes);
    if (data.size() == file_bytes) {
      parsed = parse_pack(data);
    }
  }
  if (!parsed) {
    throw std::runtime_error("damaged packfile");
  }
  std::vector<ChunkKey> keys;
  keys.reserve(parsed->size());
  for (const ParsedRecord& r : *parsed) {
    keys.push_back(r.key);
  }
  return keys;
}

void ChunkStore::rebuild_refs_locked() {
  refs_complete_ = true;
  // A count guards a chunk some pack holds. With no packfile in either
  // tier there is none, and no container needs reading: under the crash
  // contract no container names a chunk that no durable pack holds. A
  // damaged pack still counts as one: the containers naming its keys
  // must be counted before a new pack stores those keys again.
  std::vector<std::uint64_t> ids;
  if (packfile_listed_ || !packs_.empty()) {
    ids = checkpoint_ids_on_disk();
  }
  std::map<ChunkKey, std::uint64_t> rebuilt;
  for (const std::uint64_t id : ids) {
    // A refcount baseline comes only from bytes trusted end to end: each
    // file is read whole and its footer CRC64 verified, unlike the
    // leak-biased ranged key-table reads the GC and the migration
    // planner use per file. open_ranged reads it where it lies: a tiered
    // read_file would promote every demoted container at every open.
    const auto file = env_.open_ranged(dir_ + "/" + checkpoint_file_name(id));
    if (!file) {
      refs_complete_ = false;
      continue;
    }
    const Bytes data = file->pread(0, file->size());
    try {
      for (const ChunkKey& key : list_chunk_refs(data)) {
        ++rebuilt[key];
      }
    } catch (const std::exception&) {
      // A file whose references cannot be read makes liveness
      // unknowable: keep counting the others (for observability) but
      // forbid sweeps until the directory is healthy again.
      refs_complete_ = false;
    }
  }
  index_.reset_refs(rebuilt);
}

}  // namespace qnn::ckpt
