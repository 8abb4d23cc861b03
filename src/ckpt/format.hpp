// The qnnckpt on-disk checkpoint container format.
//
//   +--------------------------------------------------------------+
//   | magic "QCKP" | u16 version | u16 flags                        |
//   | u64 checkpoint_id | u64 parent_id | u64 step | u64 time_us    |
//   | u32 n_sections                                                |
//   +--------------------------------------------------------------+
//   | per section:                                                  |
//   |   u16 kind | u8 codec | u8 sflags | u64 raw_len | u64 enc_len |
//   |   u32 crc32c(encoded payload) | payload bytes                 |
//   +--------------------------------------------------------------+
//   | footer: u64 crc64(everything above) | magic "PKCQ"            |
//   +--------------------------------------------------------------+
//
// Version 2 added *chunk-framed* sections (sflags bit1). A chunked
// section's payload region is not one codec stream but a frame of
// independently-compressed, independently-CRC'd chunks:
//
//   +--------------------------------------------------------------+
//   | u32 n_chunks | u64 nominal_chunk_bytes                        |
//   | per chunk:                                                    |
//   |   u64 raw_len | u64 enc_len | u32 crc32c(chunk stream)        |
//   |   chunk codec stream bytes                                    |
//   +--------------------------------------------------------------+
//
// The section header's raw_len is the total un-chunked payload size; its
// enc_len and CRC32C cover the whole frame. Chunks are concatenated in
// order to reconstruct the payload.
//
// Version 3 adds *extern* (content-addressed) sections (sflags bit2).
// An extern section's payload region holds no chunk bytes at all — only
// a table of content keys naming chunks that live in a shared chunk
// store (ckpt/cas.hpp), so identical chunks are stored once across all
// checkpoints in a directory:
//
//   +--------------------------------------------------------------+
//   | u8 digest_type | u32 n_chunks | u64 nominal_chunk_bytes       |
//   | per chunk:  u64 raw_len | u32 crc32c(raw chunk bytes)         |
//   +--------------------------------------------------------------+
//
// The content key of a chunk is (digest, raw length); digest_type 0 is
// CRC32C over the raw (uncompressed) bytes. The field is per-section so
// a stronger digest can be introduced later without renumbering flags.
// The section header's raw_len is the total reassembled payload size;
// enc_len and CRC32C cover the key table. The encoder cuts chunks on the
// section's element grid: the first chunk also carries the payload's
// count prefix (section_array_offset), so a chunk_bytes-aligned block of
// the array rewritten in place dirties one chunk. Readers take each
// chunk's length from its key, so any cut decodes (files cut from
// payload byte 0 included). Decoding an extern section requires a
// ChunkSource.
//
// The encoder writes version 3 only. A section goes extern when a
// ChunkSink is set (the dedup stage: resident chunks skip compression
// and storage entirely) and the section is larger than chunk_bytes;
// every other section is stored inline, so an encode without a sink is
// self-contained at any size. Version-1 and version-2 files, chunk
// frames included, are decode-only: they decode unchanged, and nothing
// writes them any more.
//
// A v2 chunk frame's bytes are covered twice (chunk CRC32C and the
// section CRC32C), which keeps v1's section-granular corruption
// pinpointing for salvage.
//
// Properties the experiments rely on:
//   * every section carries its own CRC32C -> a reader can pinpoint (and
//     salvage around) localised corruption;
//   * the footer CRC64 + closing magic detect truncation of any length;
//   * sections record their codec -> files are self-describing;
//   * sflags bit0 marks a section stored as an XOR delta against the
//     parent checkpoint's same-kind section (incremental strategy);
//   * sflags bit1 marks a chunk-framed section (version 2, decode-only);
//   * sflags bit2 marks an extern section (content-addressed chunks).
//
// Numbers are little-endian. Kinds, codecs and flags are append-only.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "io/env.hpp"
#include "util/bytes.hpp"
#include "util/gauge.hpp"

namespace qnn::util {
class ThreadPool;
}

namespace qnn::ckpt {

using util::Bytes;
using util::ByteSpan;

/// The version the encoder writes; readers accept kMinFormatVersion up.
constexpr std::uint16_t kFormatVersion = 3;
constexpr std::uint16_t kMinFormatVersion = 1;

/// Smallest honored chunk size; EncodeOptions::chunk_bytes below this is
/// clamped up (framing overhead would otherwise dominate the payload).
constexpr std::size_t kMinChunkBytes = 64;

/// Section identity. On-disk values — never renumber.
enum class SectionKind : std::uint16_t {
  kMeta = 0,         ///< workload tag, optimizer name, counters
  kParams = 1,       ///< trainable parameters: u64 count | f64 elements
  kOptimizer = 2,    ///< optimiser internal state (opaque bytes)
  kRng = 3,          ///< RNG stream position (opaque bytes)
  kDataCursor = 4,   ///< permutation: u64 count | u32 elements
  kLossHistory = 5,  ///< per-step losses: u64 count | f64 elements
  kSimulator = 6,    ///< mid-evaluation simulator snapshot (opaque bytes)
};

std::string section_kind_name(SectionKind kind);

/// Byte offset of the element array within a section's raw payload: 8
/// (the u64 count) for the `u64 count | elements` kinds, 0 for byte
/// strings. The extern encoder cuts chunks on this grid.
std::size_t section_array_offset(SectionKind kind);

/// Section flags (sflags byte).
constexpr std::uint8_t kSectionFlagDelta = 0x01;
/// Section payload is a chunk frame (version 2, see file header comment).
/// Decode-only; decoded Sections always hold the reassembled raw payload.
constexpr std::uint8_t kSectionFlagChunked = 0x02;
/// Section payload is a content-key table; the chunk bytes live in the
/// directory's chunk store (v3). Set only by the encoder; decoded
/// Sections always hold the reassembled raw payload.
constexpr std::uint8_t kSectionFlagExtern = 0x04;

/// Chunk digest types (extern sections). On-disk values — append-only.
constexpr std::uint8_t kChunkDigestCrc32c = 0;

/// Content key of one chunk: digest over the RAW (uncompressed) chunk
/// bytes plus the raw length. Today the digest is CRC32C
/// (kChunkDigestCrc32c); the per-section digest_type field is the
/// upgrade path to a stronger hash.
///
/// Collision honesty: CRC32C is 32 bits, so two *distinct* same-length
/// chunks collide with birthday probability ~50% after ~77k unique
/// chunks of one length — a dedup hit on a colliding key would
/// silently substitute the resident bytes. At the default 1 MiB chunk
/// size that is ~80 GB of unique content per directory; directories
/// approaching that scale (or smaller chunk sizes at high unique-chunk
/// counts) should set chunk_bytes above their largest section, which
/// keeps every section inline and out of the chunk store, until a
/// wide-digest type exists. This bound is why digest_type exists on
/// disk from day one.
struct ChunkKey {
  std::uint32_t crc = 0;
  std::uint64_t len = 0;

  auto operator<=>(const ChunkKey&) const = default;
};

/// Computes the content key of a raw chunk.
ChunkKey chunk_key(ByteSpan raw);

/// "a1b2c3d4-4096" — the canonical textual form (messages, tooling).
std::string chunk_key_name(const ChunkKey& key);

/// Where the encoder puts (and dedups against) extern chunks. For every
/// chunk of every extern section the encoder calls contains() exactly
/// once, in chunk order; when it returns false the chunk is compressed
/// and handed to put(), puts also in chunk order. A put may come after
/// later chunks' probes, but always before the probe of a chunk with the
/// same key, so a section's duplicate chunks are stored once. Both are
/// called on the encoding thread only, never from the pool. An
/// implementation returning true promises to keep the chunk resolvable
/// until the file is installed (the chunk store's batch is retained
/// before the directory's next GC pass).
class ChunkSink {
 public:
  virtual ~ChunkSink() = default;
  virtual bool contains(const ChunkKey& key) = 0;
  /// Stores one chunk as `encoded`, coded with `codec`. A chunk of
  /// codec::kProbeMinBytes or more is put raw (kRaw, `encoded` is the
  /// chunk's own bytes) when the probe or the full encode shows the
  /// section codec would not shrink it, so `codec` may be kRaw whatever
  /// the section's codec is. `encoded` is valid only during the call.
  virtual void put(const ChunkKey& key, codec::CodecId codec,
                   ByteSpan encoded) = 0;
};

/// Where the decoder resolves extern chunks from. get() returns the raw
/// chunk bytes, fully verified against the key (digest + length), and
/// throws std::runtime_error when the chunk is absent or corrupt. The
/// decoder calls get() once per reference, except that within a section
/// a key already fetched, verified and found all zero is not fetched
/// again: its repeats land as zeros (a delta's unchanged chunks).
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;
  virtual Bytes get(const ChunkKey& key) = 0;
};

/// One in-memory section: raw payload + how it was (or is to be) stored.
struct Section {
  SectionKind kind;
  codec::CodecId codec = codec::CodecId::kRaw;
  std::uint8_t flags = 0;
  Bytes payload;  ///< raw (decoded) bytes; for delta sections, the delta
  /// Encode input only: raw bytes that follow `payload`, read where they
  /// lie (the caller's TrainingState) instead of copied in. They must
  /// stay alive and unchanged until the encode returns. Decoded sections
  /// leave it empty.
  ByteSpan view = {};

  [[nodiscard]] bool is_delta() const {
    return (flags & kSectionFlagDelta) != 0;
  }
  /// Raw payload length: `payload` then `view`.
  [[nodiscard]] std::size_t size() const {
    return payload.size() + view.size();
  }
  /// Copies `view` into `payload`, so the section outlives what it read.
  void own() {
    payload.insert(payload.end(), view.begin(), view.end());
    view = {};
  }
};

/// A checkpoint as a structured object (before encode / after decode).
struct CheckpointFile {
  std::uint64_t checkpoint_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = self-contained (full) checkpoint
  std::uint64_t step = 0;
  std::uint64_t time_us = 0;
  std::vector<Section> sections;

  [[nodiscard]] bool is_incremental() const { return parent_id != 0; }

  /// Pointer to the section of the given kind, or nullptr.
  [[nodiscard]] const Section* find(SectionKind kind) const;
};

/// Raised by every container reader below on any structural or checksum
/// failure; they throw no other exception type for a malformed file.
struct CorruptCheckpoint : std::runtime_error {
  explicit CorruptCheckpoint(const std::string& what)
      : std::runtime_error("corrupt checkpoint: " + what) {}
};

/// Where the streaming encoder emits container bytes: a growing buffer
/// (BufferSink), an open Env write handle (WritableSink), or anything
/// else that can take frames in order.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void append(ByteSpan data) = 0;
};

/// ByteSink over a Bytes buffer (the whole-buffer encode compat path).
class BufferSink final : public ByteSink {
 public:
  explicit BufferSink(Bytes& out) : out_(out) {}
  void append(ByteSpan data) override {
    out_.insert(out_.end(), data.begin(), data.end());
  }

 private:
  Bytes& out_;
};

/// ByteSink over an open streaming write handle: the container goes
/// straight to the device, never existing as a second in-memory copy.
class WritableSink final : public ByteSink {
 public:
  explicit WritableSink(io::WritableFile& file) : file_(file) {}
  void append(ByteSpan data) override { file_.append(data); }

 private:
  io::WritableFile& file_;
};

/// Encoder tuning. Defaults reproduce a self-contained, single-threaded
/// encode; the checkpoint pipeline passes a pool so chunk compression and
/// checksumming fan out.
struct EncodeOptions {
  /// With a sink, sections larger than this are externalised into the
  /// chunk store in pieces of this size, cut on the element grid (the
  /// first piece also holds the count prefix). Clamped to >= 64. Every
  /// other section, and every section when no sink is set, is stored
  /// inline.
  std::size_t chunk_bytes = std::size_t{1} << 20;
  /// Pool for concurrent chunk encode; null = encode on the calling
  /// thread. The output bytes are identical either way.
  util::ThreadPool* pool = nullptr;
  /// Chunk store for extern sections. When set, oversized sections
  /// become key tables and only non-resident chunks are compressed and
  /// stored — the cross-checkpoint dedup stage. Null: the container is
  /// self-contained.
  ChunkSink* sink = nullptr;
  /// Chunk-store misses in flight while encoding an extern section:
  /// probed, and being compressed or waiting to be put (hits cost no
  /// compression), so at most `window` encoded chunks are buffered at
  /// once. The pool also keys chunks up to this many 1 MiB blocks ahead
  /// of the probe. 0 = auto: 2x the pool's worker count, clamped to
  /// [4, 16]. This is the "workers" in the encode path's
  /// O(chunk x workers) memory bound; the emitted bytes and the sink's
  /// records are identical for any window.
  std::size_t encode_window = 0;
  /// When set, every transient encode buffer (an encoded chunk not yet
  /// put, an encoded inline section) registers its bytes here — the
  /// measured peak behind Checkpointer::Stats::peak_encode_buffer_bytes.
  util::MemGauge* gauge = nullptr;
};

/// Serialises a checkpoint, compressing each section's payload with the
/// codec recorded in that section.
Bytes encode_checkpoint(const CheckpointFile& file);

/// encode_checkpoint with explicit chunking/parallelism/dedup options.
Bytes encode_checkpoint(const CheckpointFile& file,
                        const EncodeOptions& options);

/// Streaming encode: emits the container into `out` frame by frame and
/// returns the total bytes emitted. Memory stays bounded by the largest
/// inline section's transient state — and, for extern sections, by the
/// misses in flight (options.encode_window chunks), independent of
/// checkpoint size: chunk bytes flow straight into the ChunkSink and
/// only the small key table lands in the container. With a pool, the
/// pool keys and compresses chunks while the calling thread probes and
/// puts earlier ones; every pool task has finished when this returns
/// or throws. Extern sections
/// read a Section::view in place; only the one chunk that straddles
/// `payload` and `view` is assembled. An inline section is assembled
/// whole only for its codec to run; stored raw, its parts go out as
/// they lie. The emitted bytes are identical to the whole-buffer
/// overloads, and to the same payload held wholly in `payload`, byte
/// for byte.
std::uint64_t encode_checkpoint(const CheckpointFile& file,
                                const EncodeOptions& options, ByteSink& out);

/// Where the decoder lands one section's raw payload: exactly raw-length
/// writable bytes, and whether the payload is XOR-ed into what they
/// already hold (`xor_into`) instead of copied over it. A section that
/// fails to decode partway leaves them partly written.
struct PayloadTarget {
  std::span<std::uint8_t> bytes;
  bool xor_into = false;
};

/// Called with the section (kind, codec and flags as stored) and its raw
/// length; returns where its payload lands.
using PayloadPlacement =
    std::function<PayloadTarget(const Section&, std::uint64_t)>;

/// Decoder context. A null source decodes v1/v2 files (and v3 files
/// without extern sections) exactly as before; extern sections then fail
/// with "no chunk source".
struct DecodeOptions {
  ChunkSource* source = nullptr;
  /// Null: each payload lands in its Section::payload. Set: called once
  /// per section, in file order, once the section's CRC32C (and an
  /// extern key table) verifies; the payload lands in the returned
  /// target and Section::payload stays empty. Extern and chunk-framed
  /// payloads are reassembled there chunk by chunk, with no section-sized
  /// buffer in between; an inline payload lands piece by piece as
  /// codec::decode_to hands it over (a raw one straight from the
  /// container's bytes). Each chunk or piece (an extern chunk after its
  /// re-check against its key) is copied in, or with `xor_into` XOR-ed
  /// into the target's bytes. Recovery places a
  /// full payload in the storage of the state field it loads into
  /// (ckpt/state_codec.hpp) and XORs a delta into the payload it
  /// applies to.
  PayloadPlacement place = nullptr;
};

/// Parses and fully verifies (per-section CRC32C + footer CRC64 + magics;
/// extern chunks are fetched from `options.source` and verified against
/// their keys; one section per kind). Throws CorruptCheckpoint on any
/// failure. One frame check (size, magic, footer CRC64, fixed header,
/// version) serves every whole-buffer reader below; one parse loop and
/// one section decoder serve this, salvage_checkpoint (which keeps the
/// first section of a repeated kind) and recovery.
CheckpointFile decode_checkpoint(ByteSpan data);
CheckpointFile decode_checkpoint(ByteSpan data, const DecodeOptions& options);

/// The container's identity (ids, step, time; no sections), parsed only
/// after the magics and the footer CRC64 verify, so a damaged parent id
/// is never followed. Decodes no payload and touches no chunk store.
/// Throws CorruptCheckpoint on any failure.
CheckpointFile decode_checkpoint_header(ByteSpan data);

/// Best-effort parse for forensics / fallback: returns whatever sections
/// verify individually, plus human-readable notes on what was wrong. A
/// missing or bad footer is only a note: the leading sections are still
/// salvaged. Only bad magic, a header cut short or an unsupported
/// version leave `file` empty.
struct SalvageResult {
  std::optional<CheckpointFile> file;  ///< nullopt if even the header is bad
  bool fully_intact = false;
  std::vector<std::string> notes;
};
SalvageResult salvage_checkpoint(ByteSpan data);
SalvageResult salvage_checkpoint(ByteSpan data, const DecodeOptions& options);

/// Every chunk key referenced by the file's extern sections, in section
/// then chunk order (duplicates preserved — the reference multiset for
/// refcounting). Returns empty for v1/v2 files. Checks the container
/// frame as decode_checkpoint does, so the footer CRC64 covers every key
/// table; throws CorruptCheckpoint on damage, so refcounts are never
/// rebuilt from bytes that cannot be trusted. Does not touch the chunk
/// store.
std::vector<ChunkKey> list_chunk_refs(ByteSpan data);

/// Ranged variant: reads only the fixed header, the section headers and
/// the extern key tables via pread — never the (potentially huge) inline
/// payload regions. Each key table is verified against its section
/// CRC32C; structural inconsistencies throw CorruptCheckpoint. Unlike
/// the whole-buffer overload this does NOT verify the footer CRC64
/// (doing so would force a full-file read), so a damaged-but-
/// table-consistent header can only omit references, never invent them
/// — callers must be leak-biased-safe (GC victim release, migration
/// planning); the refcount REBUILD keeps using the fully-verified
/// whole-buffer path. Throws when the file is absent.
std::vector<ChunkKey> list_chunk_refs(io::Env& env, const std::string& path);

/// One section's placement within a container file, from a ranged
/// header walk (no payload bytes read, no CRC64 verification — the
/// inspector's layout view, not a recovery-grade parse).
struct SectionIndexEntry {
  SectionKind kind = SectionKind::kMeta;
  codec::CodecId codec = codec::CodecId::kRaw;
  std::uint8_t flags = 0;
  std::uint64_t raw_len = 0;
  std::uint64_t enc_len = 0;
  std::uint32_t crc = 0;
  std::uint64_t payload_offset = 0;  ///< absolute offset of the payload
};

/// Container metadata + section table, read via pread of the headers
/// only (a few dozen bytes per section regardless of payload size).
struct CheckpointIndex {
  std::uint16_t version = 0;
  std::uint64_t checkpoint_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t step = 0;
  std::uint64_t time_us = 0;
  std::uint64_t file_bytes = 0;
  std::vector<SectionIndexEntry> sections;
};

/// Ranged header walk of a container file: the magic, the closing magic
/// and the fixed header checked as the whole-buffer readers check them,
/// then the section headers; never the footer CRC64. Throws
/// CorruptCheckpoint on structural damage and when the file is absent,
/// and no other exception type.
CheckpointIndex read_checkpoint_index(io::Env& env, const std::string& path);

}  // namespace qnn::ckpt
