#include "ckpt/format.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>

#include "codec/xor_delta.hpp"
#include "util/crc.hpp"
#include "util/thread_pool.hpp"

namespace qnn::ckpt {

namespace {
constexpr char kMagic[4] = {'Q', 'C', 'K', 'P'};
constexpr char kFooterMagic[4] = {'P', 'K', 'C', 'Q'};
constexpr std::size_t kFooterSize = 8 + 4;  // crc64 + magic
/// Fixed file header after the magic (version..n_sections).
constexpr std::size_t kFileHeaderBytes = 2 + 2 + 8 + 8 + 8 + 8 + 4;
/// Where the first section header starts.
constexpr std::size_t kBodyOffset = 4 + kFileHeaderBytes;
/// The smallest whole container: magic, fixed header and footer.
constexpr std::size_t kMinFileBytes = kBodyOffset + kFooterSize;
/// One serialized section header.
constexpr std::size_t kSectionHeaderBytes = 2 + 1 + 1 + 8 + 8 + 4;

void put_magic(Bytes& out, const char (&magic)[4]) {
  out.insert(out.end(), magic, magic + 4);
}

/// The streaming emitter: forwards every frame to the sink while
/// accumulating the footer CRC64 and the byte count — the container
/// never exists as one buffer unless the sink is a BufferSink.
class Emitter {
 public:
  explicit Emitter(ByteSink& out) : out_(out) {}

  void put(ByteSpan data) {
    crc_.update(data);
    out_.append(data);
    written_ += data.size();
  }

  [[nodiscard]] std::uint64_t crc64() const { return crc_.value(); }
  [[nodiscard]] std::uint64_t written() const { return written_; }

  /// Emits the footer (CRC64-so-far + closing magic) WITHOUT folding it
  /// into the CRC, mirroring the historical layout.
  void finish() {
    Bytes footer;
    util::put_le<std::uint64_t>(footer, crc_.value());
    put_magic(footer, kFooterMagic);
    out_.append(footer);
    written_ += footer.size();
  }

 private:
  ByteSink& out_;
  util::Crc64 crc_;
  std::uint64_t written_ = 0;
};

bool check_magic(ByteSpan in, std::size_t offset, const char (&magic)[4]) {
  return offset + 4 <= in.size() &&
         std::memcmp(in.data() + offset, magic, 4) == 0;
}

/// True when `data` ends in the closing magic and the footer CRC64
/// matches every byte before the footer.
bool footer_intact(ByteSpan data) {
  if (data.size() < kFooterSize + 4 ||
      !check_magic(data, data.size() - 4, kFooterMagic)) {
    return false;
  }
  std::size_t off = data.size() - kFooterSize;
  return util::get_le<std::uint64_t>(data, off) ==
         util::crc64(data.first(data.size() - kFooterSize));
}

// The fixed file header after the magic, and one section's header. Both
// walkers are shared by every reader in this file (parse,
// list_chunk_refs, walk_ranged) so the offset arithmetic cannot drift
// between them; encode_checkpoint and put_section_header are their
// mirror image.

struct FileHeader {
  std::uint16_t version = 0;
  std::uint16_t flags = 0;
  std::uint64_t checkpoint_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t step = 0;
  std::uint64_t time_us = 0;
  std::uint32_t n_sections = 0;
};

/// The fixed header that follows the magic at the start of `head`, its
/// version checked: the one header check of every reader. Throws
/// CorruptCheckpoint when it is cut short or its version unsupported.
FileHeader read_file_header(ByteSpan head) {
  if (head.size() < kBodyOffset) {
    throw CorruptCheckpoint("file header truncated");
  }
  std::size_t off = 4;
  FileHeader h;
  h.version = util::get_le<std::uint16_t>(head, off);
  h.flags = util::get_le<std::uint16_t>(head, off);
  h.checkpoint_id = util::get_le<std::uint64_t>(head, off);
  h.parent_id = util::get_le<std::uint64_t>(head, off);
  h.step = util::get_le<std::uint64_t>(head, off);
  h.time_us = util::get_le<std::uint64_t>(head, off);
  h.n_sections = util::get_le<std::uint32_t>(head, off);
  if (h.version < kMinFormatVersion || h.version > kFormatVersion) {
    throw CorruptCheckpoint("unsupported version " +
                            std::to_string(h.version));
  }
  return h;
}

/// True when a payload of `enc_len` bytes at `off` ends by `body_end`
/// (overflow-safe: a crafted enc_len near 2^64 must not wrap past it).
bool payload_fits(std::uint64_t off, std::uint64_t enc_len,
                  std::uint64_t body_end) {
  return off <= body_end && enc_len <= body_end - off;
}

/// A checked container frame: its fixed header and where its body ends.
struct Frame {
  FileHeader header;
  std::size_t body_end = 0;  ///< one past the last section byte
};

/// The container frame, checked by every whole-buffer reader before any
/// section: a header and a footer's worth of bytes, the magic, the
/// footer CRC64 and the fixed header. Strict (`salvage` null), each
/// failure throws CorruptCheckpoint. Salvage differs only at the footer:
/// a short file or a missing or bad footer is noted in `salvage`, and
/// the body then runs to the end of `data`.
Frame check_frame(ByteSpan data, SalvageResult* salvage) {
  if (salvage == nullptr && data.size() < kMinFileBytes) {
    throw CorruptCheckpoint("file too short");
  }
  if (!check_magic(data, 0, kMagic)) {
    throw CorruptCheckpoint("bad magic");
  }
  // Footer before header: the CRC64 covers truncation of any length.
  const bool footer_ok = footer_intact(data);
  if (!footer_ok) {
    const std::string what =
        "footer missing or file CRC64 mismatch (truncated file?)";
    if (salvage == nullptr) {
      throw CorruptCheckpoint(what);
    }
    salvage->notes.push_back(what);
    salvage->fully_intact = false;
  }
  return Frame{.header = read_file_header(data),
               .body_end = footer_ok ? data.size() - kFooterSize
                                     : data.size()};
}

/// Runs `read`, rethrowing any other exception as CorruptCheckpoint: the
/// one failure format.hpp promises of its readers.
template <typename Read>
auto as_corrupt(const Read& read) {
  try {
    return read();
  } catch (const CorruptCheckpoint&) {
    throw;
  } catch (const std::exception& e) {
    throw CorruptCheckpoint(e.what());
  }
}

/// The section header at `off`, which moves past it to the payload
/// (payload_offset is left unset). Throws std::out_of_range when cut short.
SectionIndexEntry read_section_header(ByteSpan data, std::size_t& off) {
  SectionIndexEntry h;
  h.kind = static_cast<SectionKind>(util::get_le<std::uint16_t>(data, off));
  h.codec = static_cast<codec::CodecId>(util::get_le<std::uint8_t>(data, off));
  h.flags = util::get_le<std::uint8_t>(data, off);
  h.raw_len = util::get_le<std::uint64_t>(data, off);
  h.enc_len = util::get_le<std::uint64_t>(data, off);
  h.crc = util::get_le<std::uint32_t>(data, off);
  return h;
}

/// read_section_header's mirror: `s`'s header for the payload region
/// that follows it, `stored` then `more`, as `codec` with `flags`.
void put_section_header(Bytes& out, const Section& s, codec::CodecId codec,
                        std::uint8_t flags, ByteSpan stored,
                        ByteSpan more = {}) {
  util::put_le<std::uint16_t>(out, static_cast<std::uint16_t>(s.kind));
  util::put_le<std::uint8_t>(out, static_cast<std::uint8_t>(codec));
  util::put_le<std::uint8_t>(out, flags);
  util::put_le<std::uint64_t>(out, s.size());
  util::put_le<std::uint64_t>(out, stored.size() + more.size());
  util::put_le<std::uint32_t>(out,
                              util::crc32c(more, util::crc32c(stored)));
}

/// A section's raw payload (`payload` then `view`) cut into chunks on
/// its element grid, at section_array_offset: chunk 0 spans
/// [0, grid + chunk_bytes), so it also carries the count prefix, chunk
/// c > 0 starts at `grid + c * chunk_bytes`, and the last takes the
/// remainder. Every chunk is a view of one part, except the one (if any)
/// that straddles the two: it is assembled once, at most chunk_bytes +
/// grid bytes. It holds state bytes, not encoded ones, so no MemGauge
/// counts it. `s` is larger than chunk_bytes, hence than its grid
/// offset. Read-only after construction, so chunks can be read
/// concurrently.
class ChunkCuts {
 public:
  ChunkCuts(const Section& s, std::size_t chunk_bytes)
      : s_(s),
        grid_(section_array_offset(s.kind)),
        chunk_bytes_(chunk_bytes),
        count_((s.size() - grid_ + chunk_bytes - 1) / chunk_bytes) {
    if (s.payload.empty() || s.view.empty()) {
      return;
    }
    // Only the chunk holding payload's last byte can straddle.
    const std::size_t last = s.payload.size() - 1;
    const std::size_t c = last < grid_ ? 0 : (last - grid_) / chunk_bytes;
    if (end(c) > s.payload.size()) {
      const ByteSpan head = ByteSpan(s.payload).subspan(begin(c));
      const ByteSpan tail = s.view.first(end(c) - s.payload.size());
      joined_.assign(head.begin(), head.end());
      joined_.insert(joined_.end(), tail.begin(), tail.end());
    }
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  ByteSpan operator[](std::size_t c) const {
    const std::size_t b = begin(c);
    const std::size_t e = end(c);
    const std::size_t split = s_.payload.size();
    if (e <= split) {
      return ByteSpan(s_.payload).subspan(b, e - b);
    }
    if (b >= split) {
      return s_.view.subspan(b - split, e - b);
    }
    return joined_;
  }

 private:
  [[nodiscard]] std::size_t begin(std::size_t c) const {
    return c == 0 ? 0 : grid_ + c * chunk_bytes_;
  }
  [[nodiscard]] std::size_t end(std::size_t c) const {
    return std::min(s_.size(), grid_ + (c + 1) * chunk_bytes_);
  }

  const Section& s_;
  std::size_t grid_;
  std::size_t chunk_bytes_;
  std::size_t count_;
  Bytes joined_;
};

/// One payload as stored: the section codec's output, or kRaw and no
/// output when the payload itself is stored, read where it lies.
struct StoredPayload {
  codec::CodecId codec = codec::CodecId::kRaw;
  std::optional<Bytes> encoded;  ///< nullopt: stored raw

  /// The bytes that go to disk for `raw`, the payload this was made from.
  [[nodiscard]] ByteSpan bytes(ByteSpan raw) const {
    return encoded ? ByteSpan(*encoded) : raw;
  }
  /// Encode-buffer bytes held: none for a raw payload.
  [[nodiscard]] std::size_t held() const {
    return encoded ? encoded->size() : 0;
  }
};

/// How the payload `raw` then `tail` is stored under `codec`. A payload
/// of codec::kProbeMinBytes or more is stored raw when the sampled probe,
/// which reads both parts in place, says the codec will not shrink it,
/// or when the full encode is not smaller. A shorter one is encoded as
/// is, even when the codec expands it. The two parts are joined only for
/// the codec to run.
StoredPayload store_payload(codec::CodecId codec, ByteSpan raw,
                            ByteSpan tail = {}) {
  const std::size_t n = raw.size() + tail.size();
  const bool probed = n >= codec::kProbeMinBytes;
  if (probed && !codec::worth_encoding(codec, raw, tail)) {
    return {};
  }
  Bytes joined;
  if (!tail.empty()) {
    joined.reserve(n);
    joined.assign(raw.begin(), raw.end());
    joined.insert(joined.end(), tail.begin(), tail.end());
  }
  Bytes encoded = codec::encode(codec, tail.empty() ? raw : joined);
  if (probed && encoded.size() >= n) {
    return {};
  }
  return {codec, std::move(encoded)};
}

/// Serialised size of one extern key table (preamble + one row per chunk).
std::size_t extern_table_size(std::size_t n_chunks) {
  return 1 + 4 + 8 + n_chunks * (8 + 4);  // digest, count, nominal, rows
}

/// Runs `fn` on `pool`, or, without one, on the caller when its result
/// is first waited for.
template <typename F>
auto spawn(util::ThreadPool* pool, F&& fn) {
  return pool != nullptr
             ? pool->submit(std::forward<F>(fn))
             : std::async(std::launch::deferred, std::forward<F>(fn));
}

/// Waits until `f` is ready, running queued pool tasks meanwhile (as a
/// parallel_for caller does), so a one-thread pool, or a caller that is
/// a pool thread itself, cannot stall on a task still in the queue. A
/// deferred `f` (no pool) is left for get() to run.
template <typename T>
void help_until_ready(util::ThreadPool* pool, const std::future<T>& f) {
  if (pool == nullptr) {
    return;
  }
  while (f.wait_for(std::chrono::seconds(0)) == std::future_status::timeout &&
         pool->run_pending_task()) {
  }
  f.wait();
}

/// A miss as the pool stored it. Its encoded bytes count against the
/// gauge from the moment they exist until the sink has taken them.
struct StoredChunk {
  StoredPayload payload;
  util::GaugedBytes held;
};

/// Cuts section `s` into chunks (ChunkCuts), dedups each against `sink`,
/// compressing (store_payload) and storing only the non-resident ones,
/// and returns the serialised key table that replaces the payload on
/// disk. `s` is larger than chunk_bytes.
///
/// One bounded pipeline. The pool keys `window` blocks of chunks ahead
/// of the caller, which calls contains() once per chunk, in chunk order
/// (the sink records the reference). Each miss goes to the pool to be
/// compressed as soon as it is probed, and the caller puts misses in
/// chunk order as their compression finishes, so the pool compresses
/// later misses while the caller appends earlier ones. At most
/// `window` misses are between probe and put — the
/// O(chunk x workers) memory bound of the streaming encode path — plus
/// one key per chunk: a further miss first puts the oldest. A chunk
/// whose key equals a miss not yet put first puts every miss before
/// it, so it dedups against the stored record and is compressed once.
/// Only the caller touches the sink; pool tasks read the section and
/// write keys and stored chunks. Probes and puts keep chunk order, so
/// packfile records and the key table are identical for any window
/// and pool. Without a pool every step runs in the same loop, on the
/// caller. Every pool task has finished when this returns or throws.
Bytes encode_extern_section(const Section& s, std::size_t chunk_bytes,
                            std::size_t window, util::ThreadPool* pool,
                            ChunkSink& sink, util::MemGauge* gauge) {
  // About this many bytes of chunks are keyed per pool task.
  constexpr std::size_t kKeyBlockBytes = std::size_t{1} << 20;
  const ChunkCuts cuts(s, chunk_bytes);
  const std::size_t n = cuts.count();
  const std::size_t block =
      std::max<std::size_t>(1, kKeyBlockBytes / chunk_bytes);
  const std::size_t n_blocks = (n + block - 1) / block;
  std::vector<ChunkKey> keys(n);

  struct Miss {
    std::size_t chunk;
    std::future<StoredChunk> stored;
  };
  std::deque<std::future<void>> keyed;  // blocks spawned, keys not taken
  std::deque<Miss> misses;              // probed, not yet put
  // Unwinding: wait out every task still borrowing this frame.
  struct JoinAll {
    util::ThreadPool* pool;
    std::deque<std::future<void>>& keyed;
    std::deque<Miss>& misses;
    ~JoinAll() {
      for (const auto& f : keyed) {
        help_until_ready(pool, f);
      }
      for (const Miss& m : misses) {
        help_until_ready(pool, m.stored);
      }
    }
  } join_all{pool, keyed, misses};

  // Each wait runs while the future is still in its deque, where
  // JoinAll finds it; it leaves the deque before get() consumes it.
  const auto put_oldest = [&] {
    help_until_ready(pool, misses.front().stored);
    Miss m = std::move(misses.front());
    misses.pop_front();
    const StoredChunk stored = m.stored.get();
    sink.put(keys[m.chunk], stored.payload.codec,
             stored.payload.bytes(cuts[m.chunk]));
  };
  const auto ready = [](const auto& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  // Keeps blocks `b` to `b + window - 1` spawned.
  std::size_t spawned_blocks = 0;
  const auto spawn_keys = [&](std::size_t b) {
    for (; spawned_blocks < std::min(n_blocks, b + window); ++spawned_blocks) {
      const std::size_t lo = spawned_blocks * block;
      const std::size_t hi = std::min(n, lo + block);
      keyed.push_back(spawn(pool, [&cuts, &keys, lo, hi] {
        for (std::size_t k = lo; k < hi; ++k) {
          keys[k] = chunk_key(cuts[k]);
        }
      }));
    }
  };
  const auto probe = [&](std::size_t c) {
    if (std::ranges::any_of(misses, [&](const Miss& m) {
          return keys[m.chunk] == keys[c];
        })) {
      while (!misses.empty()) {
        put_oldest();
      }
    }
    if (!sink.contains(keys[c])) {
      misses.push_back({c, spawn(pool, [&cuts, c, codec = s.codec, gauge] {
                          StoredPayload payload = store_payload(codec, cuts[c]);
                          util::GaugedBytes held(gauge, payload.held());
                          return StoredChunk{std::move(payload),
                                             std::move(held)};
                        })});
    }
  };
  // Probe while the window has room, so the pool always has misses to
  // compress; put when it is full, when every chunk is probed, or while
  // the next block's keys are not ready and the oldest miss is.
  spawn_keys(0);
  std::size_t c = 0;  // the next chunk to probe
  while (c < n || !misses.empty()) {
    if (c == n || misses.size() == window) {
      put_oldest();
      continue;
    }
    if (c % block == 0) {  // c's block is keyed.front()
      if (!misses.empty() && !ready(keyed.front()) &&
          ready(misses.front().stored)) {
        put_oldest();
        continue;
      }
      help_until_ready(pool, keyed.front());
      std::future<void> block_keys = std::move(keyed.front());
      keyed.pop_front();
      block_keys.get();
      spawn_keys(c / block + 1);
    }
    probe(c++);
  }

  Bytes table;
  table.reserve(extern_table_size(n));
  util::put_le<std::uint8_t>(table, kChunkDigestCrc32c);
  util::put_le<std::uint32_t>(table, static_cast<std::uint32_t>(n));
  util::put_le<std::uint64_t>(table, chunk_bytes);
  for (const ChunkKey& key : keys) {
    util::put_le<std::uint64_t>(table, key.len);
    util::put_le<std::uint32_t>(table, key.crc);
  }
  return table;
}

/// Parses an extern key table. Throws std::runtime_error on structural
/// damage (the table is CRC-covered, so this indicates a format bug or an
/// unsupported digest rather than bit rot).
std::vector<ChunkKey> parse_extern_table(ByteSpan table,
                                         std::uint64_t total_raw_len) {
  std::size_t off = 0;
  const auto digest = util::get_le<std::uint8_t>(table, off);
  if (digest != kChunkDigestCrc32c) {
    throw std::runtime_error("unsupported chunk digest type " +
                             std::to_string(digest));
  }
  const auto n_chunks = util::get_le<std::uint32_t>(table, off);
  (void)util::get_le<std::uint64_t>(table, off);  // nominal chunk size
  if (table.size() != extern_table_size(n_chunks)) {
    throw std::runtime_error("extern key table length mismatch");
  }
  std::vector<ChunkKey> keys;
  keys.reserve(n_chunks);
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < n_chunks; ++c) {
    ChunkKey key;
    key.len = util::get_le<std::uint64_t>(table, off);
    key.crc = util::get_le<std::uint32_t>(table, off);
    if (key.len > total_raw_len - total) {
      throw std::runtime_error("extern chunk lengths exceed section size");
    }
    total += key.len;
    keys.push_back(key);
  }
  if (total != total_raw_len) {
    throw std::runtime_error("extern chunk lengths do not sum to section size");
  }
  return keys;
}

/// True when every byte of `data` is zero (also when it is empty): each
/// byte equals its successor and the first is zero.
bool all_zero(ByteSpan data) {
  return data.empty() ||
         (data[0] == 0 &&
          std::memcmp(data.data(), data.data() + 1, data.size() - 1) == 0);
}

/// Lands `raw` at byte `off` of `out`: copied over it, or XOR-ed into it.
void land(ByteSpan raw, const PayloadTarget& out, std::size_t off) {
  const std::span<std::uint8_t> dest = out.bytes.subspan(off, raw.size());
  if (out.xor_into) {
    codec::xor_with_parent_inplace(dest, raw);
  } else {
    std::ranges::copy(raw, dest.begin());
  }
}

/// Reassembles an extern section into `out` by fetching every chunk of
/// `keys` (whose lengths sum to out.bytes.size()) from `source`. get()
/// verifies digest + length; both are re-checked here anyway.
///
/// A key this section has already fetched, verified and found all zero
/// lands without a fetch: nothing for an XOR landing, a zero fill for a
/// copy. A source maps a key to one record, so a refetch could return
/// nothing else, and every landed byte still passed both checks. An
/// unchanged chunk of a delta is such a key, repeated once per chunk.
void resolve_extern_payload(ChunkSource& source,
                            const std::vector<ChunkKey>& keys,
                            const PayloadTarget& out) {
  std::vector<ChunkKey> zero_keys;  // one per chunk length, in practice
  std::size_t off = 0;
  for (const ChunkKey& key : keys) {
    if (std::ranges::find(zero_keys, key) != zero_keys.end()) {
      if (!out.xor_into) {
        std::ranges::fill(out.bytes.subspan(off, key.len), 0);
      }
      off += key.len;
      continue;
    }
    const Bytes raw = source.get(key);
    // Re-verify against the key here, independent of the source's own
    // checks: a checkpoint must never reassemble from bytes that do not
    // hash to what its table promised.
    if (raw.size() != key.len || util::crc32c(raw) != key.crc) {
      throw std::runtime_error("chunk " + chunk_key_name(key) +
                               ": content digest mismatch");
    }
    if (all_zero(raw)) {
      zero_keys.push_back(key);
    }
    land(raw, out, off);
    off += raw.size();
  }
}

/// Reassembles a (version-2) chunk frame into `out` (the whole raw payload),
/// verifying every chunk CRC and the total length. Throws
/// std::runtime_error on any mismatch.
void decode_chunked_payload(codec::CodecId codec, ByteSpan frame,
                            const PayloadTarget& out) {
  std::size_t off = 0;
  const auto n_chunks = util::get_le<std::uint32_t>(frame, off);
  (void)util::get_le<std::uint64_t>(frame, off);  // nominal chunk size
  std::size_t out_off = 0;
  for (std::uint32_t c = 0; c < n_chunks; ++c) {
    const auto raw_len = util::get_le<std::uint64_t>(frame, off);
    const auto enc_len = util::get_le<std::uint64_t>(frame, off);
    const auto crc = util::get_le<std::uint32_t>(frame, off);
    // Overflow-safe: off <= frame.size() after get_le, so subtract.
    if (enc_len > frame.size() - off) {
      throw std::runtime_error("chunk " + std::to_string(c) +
                               ": truncated stream");
    }
    if (raw_len > out.bytes.size() - out_off) {
      throw std::runtime_error("chunk " + std::to_string(c) +
                               ": raw length exceeds section size");
    }
    const ByteSpan enc = frame.subspan(off, enc_len);
    off += enc_len;
    if (util::crc32c(enc) != crc) {
      throw std::runtime_error("chunk " + std::to_string(c) +
                               ": CRC32C mismatch");
    }
    const Bytes raw = codec::decode(codec, enc, raw_len);
    land(raw, out, out_off);
    out_off += raw.size();
  }
  if (off != frame.size()) {
    throw std::runtime_error("chunk frame has trailing bytes");
  }
  if (out_off != out.bytes.size()) {
    throw std::runtime_error("chunk frame raw length mismatch");
  }
}

/// The section decoder: reassembles a CRC-verified section's raw payload
/// where options.place puts it (or into s.payload) and clears the
/// storage-only flags. Throws std::runtime_error on any damage.
void decode_section(Section& s, std::uint64_t raw_len, ByteSpan encoded,
                    std::uint16_t version, const DecodeOptions& options) {
  const auto place = [&]() -> PayloadTarget {
    if (!options.place) {
      s.payload.resize(raw_len);
      return {.bytes = s.payload};
    }
    const PayloadTarget dest = options.place(s, raw_len);
    if (dest.bytes.size() != raw_len) {
      throw std::logic_error("payload placement returned the wrong size");
    }
    return dest;
  };
  if ((s.flags & kSectionFlagExtern) != 0) {
    if (version < 3) {
      throw std::runtime_error("extern section in a version-" +
                               std::to_string(version) + " file");
    }
    if (options.source == nullptr) {
      throw std::runtime_error(
          "extern section needs a chunk store (no source)");
    }
    const auto keys = parse_extern_table(encoded, raw_len);
    resolve_extern_payload(*options.source, keys, place());
    s.flags &= static_cast<std::uint8_t>(~kSectionFlagExtern);
  } else if ((s.flags & kSectionFlagChunked) != 0) {
    if (version < 2) {
      throw std::runtime_error("chunked section in a version-1 file");
    }
    decode_chunked_payload(s.codec, encoded, place());
    s.flags &= static_cast<std::uint8_t>(~kSectionFlagChunked);
  } else if (options.place) {
    // Piece by piece (codec::decode_to): a raw payload lands from the
    // container's bytes, an LZ one through the decoder's window.
    const PayloadTarget dest = place();
    codec::decode_to(s.codec, encoded, raw_len,
                     [&](std::size_t off, ByteSpan piece) {
                       land(piece, dest, off);
                     });
  } else {
    s.payload = codec::decode(s.codec, encoded, raw_len);
  }
}
}  // namespace

ChunkKey chunk_key(ByteSpan raw) {
  return ChunkKey{.crc = util::crc32c(raw), .len = raw.size()};
}

std::string chunk_key_name(const ChunkKey& key) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%08x-%llu", key.crc,
                static_cast<unsigned long long>(key.len));
  return buf;
}

std::string section_kind_name(SectionKind kind) {
  switch (kind) {
    case SectionKind::kMeta: return "meta";
    case SectionKind::kParams: return "params";
    case SectionKind::kOptimizer: return "optimizer";
    case SectionKind::kRng: return "rng";
    case SectionKind::kDataCursor: return "data-cursor";
    case SectionKind::kLossHistory: return "loss-history";
    case SectionKind::kSimulator: return "simulator";
  }
  return "unknown(" + std::to_string(static_cast<int>(kind)) + ")";
}

std::size_t section_array_offset(SectionKind kind) {
  switch (kind) {
    case SectionKind::kParams:
    case SectionKind::kDataCursor:
    case SectionKind::kLossHistory:
      return sizeof(std::uint64_t);  // util::put_vector's element count
    case SectionKind::kMeta:
    case SectionKind::kOptimizer:
    case SectionKind::kRng:
    case SectionKind::kSimulator:
      return 0;
  }
  return 0;
}

const Section* CheckpointFile::find(SectionKind kind) const {
  for (const Section& s : sections) {
    if (s.kind == kind) {
      return &s;
    }
  }
  return nullptr;
}

Bytes encode_checkpoint(const CheckpointFile& file) {
  return encode_checkpoint(file, EncodeOptions{});
}

Bytes encode_checkpoint(const CheckpointFile& file,
                        const EncodeOptions& options) {
  Bytes out;
  BufferSink sink(out);
  encode_checkpoint(file, options, sink);
  return out;
}

std::uint64_t encode_checkpoint(const CheckpointFile& file,
                                const EncodeOptions& options, ByteSink& out) {
  const std::size_t chunk_bytes =
      std::max(options.chunk_bytes, kMinChunkBytes);
  // Auto window: two misses per pool worker keeps every thread fed
  // while the caller puts the oldest, clamped to [4, 16] so the memory
  // bound does not silently scale with core count.
  const std::size_t window =
      options.encode_window != 0
          ? options.encode_window
          : std::clamp<std::size_t>(
                2 * (options.pool != nullptr ? options.pool->size() : 1), 4,
                16);

  Emitter em(out);
  Bytes scratch;
  put_magic(scratch, kMagic);
  util::put_le<std::uint16_t>(scratch, kFormatVersion);
  util::put_le<std::uint16_t>(scratch, 0);  // file flags, reserved
  util::put_le<std::uint64_t>(scratch, file.checkpoint_id);
  util::put_le<std::uint64_t>(scratch, file.parent_id);
  util::put_le<std::uint64_t>(scratch, file.step);
  util::put_le<std::uint64_t>(scratch, file.time_us);
  util::put_le<std::uint32_t>(scratch,
                              static_cast<std::uint32_t>(file.sections.size()));
  em.put(scratch);

  for (const Section& s : file.sections) {
    scratch.clear();
    if (options.sink != nullptr && s.size() > chunk_bytes) {
      // Content-addressed: the chunk bytes stream into the sink a
      // window of misses at a time (bounded memory); only the small key
      // table lands in the container as the payload region.
      const Bytes table = encode_extern_section(
          s, chunk_bytes, window, options.pool, *options.sink, options.gauge);
      put_section_header(
          scratch, s, s.codec,
          static_cast<std::uint8_t>(s.flags | kSectionFlagExtern), table);
      em.put(scratch);
      em.put(table);
      continue;
    }
    // Inline: the payload is stored before its header is written, so the
    // header's codec byte names the stored form. Stored raw, it goes out
    // in its parts, `payload` then `view`, read where they lie.
    const StoredPayload stored = store_payload(s.codec, s.payload, s.view);
    const util::GaugedBytes held(options.gauge, stored.held());
    ByteSpan first = stored.bytes(s.payload);
    ByteSpan second = stored.encoded ? ByteSpan{} : s.view;
    if (first.empty()) {
      std::swap(first, second);
    }
    put_section_header(scratch, s, stored.codec, s.flags, first, second);
    em.put(scratch);
    em.put(first);
    if (!second.empty()) {
      em.put(second);
    }
  }

  em.finish();
  return em.written();
}

namespace {

/// The one parse loop, behind decode_checkpoint and salvage_checkpoint.
/// Strict (`salvage` null), any problem throws CorruptCheckpoint; in
/// salvage mode problems are noted in `salvage` and parsing continues
/// where possible.
CheckpointFile parse(ByteSpan data, const DecodeOptions& options,
                     SalvageResult* salvage) {
  auto fail = [&](const std::string& what) {
    if (salvage == nullptr) {
      throw CorruptCheckpoint(what);
    }
    salvage->notes.push_back(what);
    salvage->fully_intact = false;
  };

  const Frame frame = check_frame(data, salvage);
  CheckpointFile file{.checkpoint_id = frame.header.checkpoint_id,
                      .parent_id = frame.header.parent_id,
                      .step = frame.header.step,
                      .time_us = frame.header.time_us,
                      .sections = {}};

  std::size_t off = kBodyOffset;
  std::vector<SectionKind> kinds;  // every section header's, in file order
  for (std::uint32_t i = 0; i < frame.header.n_sections; ++i) {
    SectionIndexEntry sh;
    try {
      sh = read_section_header(data, off);
    } catch (const std::out_of_range&) {
      fail("section " + std::to_string(i) + ": truncated header");
      return file;
    }
    if (!payload_fits(off, sh.enc_len, frame.body_end)) {
      fail("section " + section_kind_name(sh.kind) + ": truncated payload");
      return file;
    }
    const ByteSpan encoded = data.subspan(off, sh.enc_len);
    off += sh.enc_len;

    // One section per kind: a repeat would land on (or, as a delta,
    // XOR into) the payload the first one placed. Salvage keeps the
    // first.
    if (std::ranges::find(kinds, sh.kind) != kinds.end()) {
      fail("section " + section_kind_name(sh.kind) + ": kind repeated");
      continue;
    }
    kinds.push_back(sh.kind);

    if (util::crc32c(encoded) != sh.crc) {
      fail("section " + section_kind_name(sh.kind) + ": CRC32C mismatch");
      continue;  // salvage mode: skip this section, keep going
    }
    Section s;
    s.kind = sh.kind;
    s.codec = sh.codec;
    s.flags = sh.flags;
    try {
      decode_section(s, sh.raw_len, encoded, frame.header.version, options);
    } catch (const std::exception& e) {
      fail("section " + section_kind_name(s.kind) +
           ": decode failed: " + e.what());
      continue;
    }
    file.sections.push_back(std::move(s));
  }
  return file;
}

/// pread cursor over a ranged handle; throws CorruptCheckpoint when a
/// fixed-size piece comes back short (truncation).
struct RangedCursor {
  io::RandomAccessFile& file;
  std::uint64_t off = 0;

  Bytes take(std::size_t n, const char* what) {
    Bytes piece = file.pread(off, n);
    if (piece.size() != n) {
      throw CorruptCheckpoint(std::string("truncated ") + what);
    }
    off += n;
    return piece;
  }
};

/// The ranged walk: the magic, the closing magic and the fixed header
/// (read_file_header, as every reader checks it), then each section
/// header, its payload skipped by seeking. It checks structure (lengths
/// within the file) but deliberately NOT the footer CRC64: that is what
/// makes it a header-sized read instead of a whole-file one.
CheckpointIndex walk_ranged(io::RandomAccessFile& file) {
  CheckpointIndex index;
  index.file_bytes = file.size();
  if (index.file_bytes < kMinFileBytes) {
    throw CorruptCheckpoint("file too short");
  }
  RangedCursor cursor{file};
  const Bytes head = cursor.take(kBodyOffset, "file header");
  if (!check_magic(head, 0, kMagic)) {
    throw CorruptCheckpoint("bad magic");
  }
  if (!check_magic(file.pread(index.file_bytes - 4, 4), 0, kFooterMagic)) {
    throw CorruptCheckpoint("footer missing (truncated file?)");
  }
  const FileHeader header = read_file_header(head);
  index.version = header.version;
  index.checkpoint_id = header.checkpoint_id;
  index.parent_id = header.parent_id;
  index.step = header.step;
  index.time_us = header.time_us;

  const std::uint64_t body_end = index.file_bytes - kFooterSize;
  for (std::uint32_t i = 0; i < header.n_sections; ++i) {
    const Bytes raw = cursor.take(kSectionHeaderBytes, "section header");
    std::size_t hoff = 0;
    SectionIndexEntry entry = read_section_header(raw, hoff);
    entry.payload_offset = cursor.off;
    if (!payload_fits(cursor.off, entry.enc_len, body_end)) {
      throw CorruptCheckpoint("section " + section_kind_name(entry.kind) +
                              ": truncated payload");
    }
    cursor.off += entry.enc_len;  // seek past the payload: never read it
    index.sections.push_back(entry);
  }
  return index;
}

/// Opens `path` for ranged reads and runs `read` on the handle. Throws
/// CorruptCheckpoint when the file is absent or `read` fails.
template <typename Read>
auto read_ranged(io::Env& env, const std::string& path, const Read& read) {
  const auto file = env.open_ranged(path);
  if (!file) {
    throw CorruptCheckpoint("file missing: " + path);
  }
  return as_corrupt([&] { return read(*file); });
}

}  // namespace

CheckpointFile decode_checkpoint(ByteSpan data) {
  return parse(data, DecodeOptions{}, nullptr);
}

CheckpointFile decode_checkpoint(ByteSpan data, const DecodeOptions& options) {
  return parse(data, options, nullptr);
}

CheckpointFile decode_checkpoint_header(ByteSpan data) {
  const FileHeader header = check_frame(data, nullptr).header;
  return CheckpointFile{.checkpoint_id = header.checkpoint_id,
                        .parent_id = header.parent_id,
                        .step = header.step,
                        .time_us = header.time_us,
                        .sections = {}};
}

SalvageResult salvage_checkpoint(ByteSpan data) {
  return salvage_checkpoint(data, DecodeOptions{});
}

SalvageResult salvage_checkpoint(ByteSpan data, const DecodeOptions& options) {
  SalvageResult result;
  result.fully_intact = true;
  try {
    result.file = parse(data, options, &result);
  } catch (const std::exception& e) {
    result.fully_intact = false;
    result.notes.push_back(e.what());
    result.file = std::nullopt;
  }
  return result;
}

std::vector<ChunkKey> list_chunk_refs(ByteSpan data) {
  // The frame checks the footer CRC64 first: refcounts must never be
  // rebuilt from a file whose bytes cannot be trusted end to end.
  const Frame frame = check_frame(data, nullptr);
  std::vector<ChunkKey> refs;
  if (frame.header.version < 3) {
    return refs;  // inline formats reference no external chunks
  }
  as_corrupt([&] {
    std::size_t off = kBodyOffset;
    for (std::uint32_t i = 0; i < frame.header.n_sections; ++i) {
      const SectionIndexEntry sh = read_section_header(data, off);
      if (!payload_fits(off, sh.enc_len, frame.body_end)) {
        throw CorruptCheckpoint("section " + std::to_string(i) +
                                ": truncated payload");
      }
      if ((sh.flags & kSectionFlagExtern) != 0) {
        const auto keys =
            parse_extern_table(data.subspan(off, sh.enc_len), sh.raw_len);
        refs.insert(refs.end(), keys.begin(), keys.end());
      }
      off += sh.enc_len;
    }
  });
  return refs;
}

CheckpointIndex read_checkpoint_index(io::Env& env, const std::string& path) {
  return read_ranged(env, path, walk_ranged);
}

std::vector<ChunkKey> list_chunk_refs(io::Env& env, const std::string& path) {
  return read_ranged(env, path, [](io::RandomAccessFile& file) {
    std::vector<ChunkKey> refs;
    const CheckpointIndex index = walk_ranged(file);
    if (index.version < 3) {
      return refs;  // inline formats reference no external chunks
    }
    for (const SectionIndexEntry& entry : index.sections) {
      if ((entry.flags & kSectionFlagExtern) == 0) {
        continue;
      }
      const Bytes table = file.pread(entry.payload_offset, entry.enc_len);
      if (table.size() != entry.enc_len) {
        throw CorruptCheckpoint("extern key table truncated");
      }
      // The table is small and carries the section CRC32C: verify it
      // before trusting a single key (the whole-file CRC64 is skipped
      // by design — see the header comment on the ranged overload).
      if (util::crc32c(table) != entry.crc) {
        throw CorruptCheckpoint("extern key table CRC32C mismatch");
      }
      const auto keys = parse_extern_table(table, entry.raw_len);
      refs.insert(refs.end(), keys.begin(), keys.end());
    }
    return refs;
  });
}

}  // namespace qnn::ckpt
