#include "ckpt/cas.hpp"

#include <algorithm>
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
// The refcount journal of earlier versions; nothing reads it now.
constexpr const char* kLegacyRefsFile = "REFS";

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

/// A version-1 pack's records: the whole file, framing and footer CRC64
/// checked, its records walked serially (no key table). nullopt on any
/// damage.
std::optional<std::vector<ParsedRecord>> parse_pack_v1(util::ByteSpan span) {
  if (span.size() < kPackHeaderBytes + kPackFooterBytes ||
      !check_magic(span, 0, kPackMagic) ||
      !check_magic(span, span.size() - 4, kPackFooterMagic)) {
    return std::nullopt;
  }
  const std::size_t body_end = span.size() - kPackFooterBytes;
  {
    std::size_t foff = body_end;
    const auto stored = util::get_le<std::uint64_t>(span, foff);
    if (stored != util::crc64(span.first(body_end))) {
      return std::nullopt;
    }
  }
  std::vector<ParsedRecord> records;
  try {
    std::size_t off = kPackHeaderBytes - 4;  // the u32 n_records
    const auto n_records = util::get_le<std::uint32_t>(span, off);
    for (std::uint32_t i = 0; i < n_records; ++i) {
      bool digest_ok = false;
      ParsedRecord r = parse_record_fields(span, off, digest_ok);
      r.offset = off;
      if (!digest_ok || r.enc_len > body_end - off) {
        return std::nullopt;
      }
      off += r.enc_len;
      records.push_back(r);
    }
    if (off != body_end) {
      return std::nullopt;
    }
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
  return records;
}

/// THE packfile index reader, for both pack versions: a v2 pack's
/// footer and key table by ranged reads (table CRC32C checked), a v1
/// pack parsed whole (footer CRC64 checked). nullopt on any damage.
std::optional<std::vector<ParsedRecord>> read_pack_index(
    io::RandomAccessFile& file) {
  const std::uint64_t file_bytes = file.size();
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
      const Bytes data = file.pread(0, file_bytes);
      return data.size() == file_bytes ? parse_pack_v1(data) : std::nullopt;
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
  return util::numbered_name("pack-", epoch, ".qpak");
}

std::optional<std::uint64_t> parse_pack_file_name(const std::string& name) {
  return util::parse_numbered_name(name, "pack-", ".qpak");
}

// ---------------------------------------------------------------------------
// Batch (ChunkSink)
// ---------------------------------------------------------------------------

ChunkStore::Batch::Batch(ChunkStore& store, std::uint64_t epoch)
    : store_(store), epoch_(epoch) {}

ChunkStore::Batch::~Batch() {
  if (unretained_) {
    // Dropped before its retain: the checkpoint never installed.
    std::lock_guard lock(store_.mu_);
    --store_.unretained_batches_;
  }
}

bool ChunkStore::Batch::contains(const ChunkKey& key) {
  refs_.push_back(key);
  std::lock_guard lock(store_.mu_);
  store_.ensure_open_locked();
  if (!unretained_) {
    unretained_ = true;
    ++store_.unretained_batches_;
  }
  const bool resident =
      store_.resident_locked(key) != nullptr || staged_index_.contains(key);
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
      unindex_locked(r.key, pack_id);
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
  index_records_locked(pack, pack_id);
  invalidate_pack_handle_locked(name);  // re-published epoch
  packs_[name] = std::move(pack);
}

bool ChunkStore::contains(const ChunkKey& key) {
  std::lock_guard lock(mu_);
  ensure_open_locked();
  return resident_locked(key) != nullptr;
}

const ChunkStore::Entry* ChunkStore::resident_locked(
    const ChunkKey& key) const {
  const auto it = index_.find(key);
  return it != index_.end() && it->second.pack != kNoPack ? &it->second
                                                          : nullptr;
}

void ChunkStore::index_records_locked(const Pack& pack, std::int32_t pack_id) {
  for (std::size_t i = 0; i < pack.records.size(); ++i) {
    Entry& e = index_[pack.records[i].key];
    if (e.pack == kNoPack) {
      e.pack = pack_id;
      e.record = static_cast<std::uint32_t>(i);
      chunks_.add(1);
    }
  }
}

void ChunkStore::unindex_locked(const ChunkKey& key, std::int32_t pack_id) {
  const auto it = index_.find(key);
  if (it == index_.end() || it->second.pack != pack_id) {
    return;
  }
  chunks_.add(-1);
  if (it->second.refs == 0) {
    index_.erase(it);
  } else {
    it->second.pack = kNoPack;
    it->second.record = 0;
  }
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
  const Entry* loc = resident_locked(key);
  if (loc == nullptr && !deferred_packs_.empty()) {
    // The chunk may live in a cold pack the staged open deferred:
    // index cold packs (ranged peek of footer + key table, no bulk
    // transfer) until it shows up.
    scan_deferred_until_locked(key);
    loc = resident_locked(key);
  }
  if (loc == nullptr) {
    throw std::runtime_error("chunk " + chunk_key_name(key) +
                             ": not in store");
  }
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

void ChunkStore::retain(Batch& batch) {
  if (!batch.unretained_) {
    return;  // probed nothing, or already retained
  }
  std::lock_guard lock(mu_);
  ensure_refs_locked();
  for (const ChunkKey& key : batch.refs_) {
    ++index_[key].refs;
  }
  batch.unretained_ = false;
  --unretained_batches_;
}

void ChunkStore::release(const std::vector<ChunkKey>& keys) {
  if (keys.empty()) {
    return;
  }
  std::lock_guard lock(mu_);
  require_retained_locked("release");
  ensure_refs_locked();
  for (const ChunkKey& key : keys) {
    // A key the rebuild never counted is ignored.
    const auto it = index_.find(key);
    if (it == index_.end() || it->second.refs == 0) {
      continue;
    }
    if (--it->second.refs == 0 && it->second.pack == kNoPack) {
      index_.erase(it);
    }
  }
}

std::uint64_t ChunkStore::ref_count(const ChunkKey& key) {
  std::lock_guard lock(mu_);
  ensure_refs_locked();
  const auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.refs;
}

void ChunkStore::require_retained_locked(const char* op) const {
  if (unretained_batches_ != 0) {
    throw std::logic_error(std::string("ChunkStore::") + op + ": " +
                           std::to_string(unretained_batches_) +
                           " probed batch(es) not yet retained");
  }
}

std::uint64_t ChunkStore::sweep(bool compact) {
  std::lock_guard lock(mu_);
  require_retained_locked("sweep");
  ensure_open_locked();
  if (compact) {
    // The no-dead-chunk-survives guarantee spans both tiers, so the
    // startup (compacting) sweep must see every pack. Plain sweeps run
    // per install and stay hot-only: a cold pack's records can only go
    // dead when their referents are deleted, and the next startup
    // sweep reaps them.
    drain_deferred_locked();
    if (legacy_refs_listed_) {
      env_.remove_file(chunk_dir_ + "/" + kLegacyRefsFile);
      legacy_refs_listed_ = false;
    }
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
    // No probe runs while mu_ is held, so liveness cannot change before
    // the dead records' locations are erased below.
    std::vector<Record> live;
    std::vector<ChunkKey> dead;
    std::uint64_t dead_bytes = 0;
    for (const Record& r : pack.records) {
      const auto it = index_.find(r.key);
      if (it != index_.end() && it->second.refs != 0) {
        live.push_back(r);
      } else {
        dead.push_back(r.key);
        dead_bytes += r.enc_len;
      }
    }
    if (dead.empty()) {
      continue;
    }
    if (live.empty()) {
      env_.remove_file(pack_path(name));
      stored_bytes_.add(-static_cast<std::int64_t>(pack.file_bytes));
      reclaimed += pack.file_bytes;
      packs_deleted_.add();
      packfiles_.add(-1);
    } else {
      if (!compact) {
        continue;  // mixed pack: deferred to the next compacting sweep
      }
      // Mixed pack: rewrite it atomically with only the live records —
      // streamed record by record through the one packfile writer, each
      // record pread from the old pack (never the whole file at once).
      io::RandomAccessFile* old_pack = ranged_pack_locked(name);
      if (old_pack == nullptr) {
        continue;  // vanished underneath us; the next open re-scans
      }
      std::vector<Record> rewritten;
      rewritten.reserve(live.size());
      std::optional<std::uint64_t> new_bytes;
      try {
        detail::PackStream out(env_, pack_path(name),
                               parse_pack_file_name(name).value_or(0));
        for (const Record& r : live) {
          const Bytes enc = old_pack->pread(r.offset, r.enc_len);
          if (enc.size() != r.enc_len || util::crc32c(enc) != r.enc_crc) {
            break;  // damaged record: abandon the rewrite
          }
          Record moved = r;
          moved.offset = out.append_record(r.key, r.codec, r.enc_crc, enc);
          rewritten.push_back(moved);
        }
        if (rewritten.size() == live.size()) {
          new_bytes = out.finish();  // atomic replace
        }
      } catch (const std::exception&) {
        // I/O failure: abandon the rewrite as for a damaged record.
      }
      if (!new_bytes) {
        continue;  // the unfinished stream installed nothing
      }
      stored_bytes_.add(-static_cast<std::int64_t>(pack.file_bytes) +
                        static_cast<std::int64_t>(*new_bytes));
      reclaimed += pack.file_bytes - *new_bytes;
      packs_compacted_.add();
      pack.file_bytes = *new_bytes;
      pack.records = std::move(rewritten);
      // Re-point the keys this pack holds at their rewritten positions.
      for (std::size_t i = 0; i < pack.records.size(); ++i) {
        const auto it = index_.find(pack.records[i].key);
        if (it != index_.end() && it->second.pack == pack_id) {
          it->second.record = static_cast<std::uint32_t>(i);
        }
      }
    }
    for (const ChunkKey& key : dead) {
      unindex_locked(key, pack_id);
    }
    chunks_swept_.add(dead.size());
    bytes_swept_.add(dead_bytes);
    invalidate_pack_handle_locked(name);
    if (live.empty()) {
      packs_.erase(name);
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
      legacy_refs_listed_ |= name == kLegacyRefsFile;
      if (parse_pack_file_name(name)) {
        packfile_listed_ = true;
        scan_pack_locked(name, tiered_->hot());
      }
    }
    for (const std::string& name : tiered_->cold().list_dir(chunk_dir_)) {
      legacy_refs_listed_ |= name == kLegacyRefsFile;
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
      legacy_refs_listed_ |= name == kLegacyRefsFile;
      if (parse_pack_file_name(name)) {
        packfile_listed_ = true;
        scan_pack_locked(name, env_);
      }
    }
  }
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
  const auto parsed = read_pack_index(*file);
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
  pack.file_bytes = file->size();
  stored_bytes_.add(static_cast<std::int64_t>(pack.file_bytes));
  packfiles_.add(1);
  index_records_locked(pack, intern_pack_locked(name));
  packs_[name] = std::move(pack);
  // Keep the handle as the read cache: a get() that triggered this scan
  // (lazy cold-pack indexing) serves its chunk with one more pread.
  cache_pack_handle_locked(name, std::move(file));
  return ScanOutcome::kScanned;
}

std::optional<std::string> ChunkStore::scan_next_deferred_locked() {
  std::string name = std::move(deferred_packs_.back());
  deferred_packs_.pop_back();
  if (packs_.contains(name)) {
    return std::nullopt;  // re-published under the same epoch meanwhile
  }
  // Peek reads (footer + key table) go through the cold tier so indexing
  // never promotes a pack the caller may not even need.
  io::Env& through = tiered_ ? tiered_->cold() : env_;
  if (scan_pack_locked(name, through) == ScanOutcome::kAbsent) {
    // Promoted since the open listing: retry through the union view.
    // Only genuine absence falls back — a damaged pack must not be
    // re-read (or promoted hot) and double-counted.
    scan_pack_locked(name, env_);
  }
  return name;
}

void ChunkStore::scan_deferred_until_locked(const ChunkKey& key) {
  while (!deferred_packs_.empty() && resident_locked(key) == nullptr) {
    // Newest first: a missing chunk most likely lives in the pack of a
    // recently demoted checkpoint.
    const auto name = scan_next_deferred_locked();
    if (name && resident_locked(key) != nullptr && tiered_ != nullptr &&
        tiered_->promote_on_read()) {
      // This pack is the one the caller needs. With read-through
      // promotion on, pull it hot via a streaming copy (bounded
      // memory) so the NEXT access is a hot hit; the current get()
      // still resolves its chunk with a ranged cold pread either way.
      // The scan's cached handle points at the cold copy — drop it so
      // the next read opens the promoted file.
      invalidate_pack_handle_locked(*name);
      tiered_->promote_file(pack_path(*name));  // best effort
    }
  }
}

void ChunkStore::drain_deferred_locked() {
  while (!deferred_packs_.empty()) {
    scan_next_deferred_locked();
  }
}

std::vector<ChunkKey> list_pack_keys(io::Env& env, const std::string& path) {
  auto file = env.open_ranged(path);
  if (!file) {
    throw std::runtime_error("packfile missing: " + path);
  }
  const auto parsed = read_pack_index(*file);
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
  // Runs once, before any retain or release: every count starts at 0.
  // Sweeps stay off until the rebuild has counted every file, so one
  // that throws part-way frees nothing.
  refs_complete_ = false;
  // A count guards a chunk some pack holds. With no packfile in either
  // tier there is none, and no container needs reading: under the crash
  // contract no container names a chunk that no durable pack holds. A
  // damaged pack still counts as one: the containers naming its keys
  // must be counted before a new pack stores those keys again.
  std::vector<std::uint64_t> ids;
  if (packfile_listed_ || !packs_.empty()) {
    ids = checkpoint_ids_on_disk();
  }
  bool complete = true;
  for (const std::uint64_t id : ids) {
    // A refcount baseline comes only from bytes trusted end to end: each
    // file is read whole and its footer CRC64 verified, unlike the
    // leak-biased ranged key-table reads the GC and the migration
    // planner use per file. open_ranged reads it where it lies: a tiered
    // read_file would promote every demoted container at every open.
    const auto file = env_.open_ranged(dir_ + "/" + checkpoint_file_name(id));
    if (!file) {
      complete = false;
      continue;
    }
    const Bytes data = file->pread(0, file->size());
    try {
      for (const ChunkKey& key : list_chunk_refs(data)) {
        ++index_[key].refs;
      }
    } catch (const std::exception&) {
      // A file whose references cannot be read makes liveness
      // unknowable: keep counting the others (for observability) but
      // forbid sweeps until the directory is healthy again.
      complete = false;
    }
  }
  refs_complete_ = complete;
}

}  // namespace qnn::ckpt
