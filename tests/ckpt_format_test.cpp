// Tests for the checkpoint container format: round-trips, corruption
// detection sweeps, truncation, salvage.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "ckpt/format.hpp"
#include "ckpt/state_codec.hpp"
#include "codec/xor_delta.hpp"
#include "io/mem_env.hpp"
#include "obs/metrics.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qnn::ckpt {
namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng());
  }
  return out;
}

CheckpointFile sample_file(codec::CodecId codec, std::size_t sim_bytes = 0) {
  CheckpointFile f;
  f.checkpoint_id = 7;
  f.parent_id = 0;
  f.step = 120;
  f.time_us = 1234567;
  f.sections.push_back(Section{.kind = SectionKind::kParams,
                               .codec = codec,
                               .flags = 0,
                               .payload = random_bytes(800, 1)});
  f.sections.push_back(Section{.kind = SectionKind::kOptimizer,
                               .codec = codec,
                               .flags = 0,
                               .payload = random_bytes(1600, 2)});
  f.sections.push_back(Section{.kind = SectionKind::kRng,
                               .codec = codec,
                               .flags = 0,
                               .payload = random_bytes(42, 3)});
  if (sim_bytes > 0) {
    f.sections.push_back(Section{.kind = SectionKind::kSimulator,
                                 .codec = codec,
                                 .flags = 0,
                                 .payload = random_bytes(sim_bytes, 4)});
  }
  return f;
}

void expect_equal_files(const CheckpointFile& a, const CheckpointFile& b) {
  EXPECT_EQ(a.checkpoint_id, b.checkpoint_id);
  EXPECT_EQ(a.parent_id, b.parent_id);
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.time_us, b.time_us);
  ASSERT_EQ(a.sections.size(), b.sections.size());
  for (std::size_t i = 0; i < a.sections.size(); ++i) {
    EXPECT_EQ(a.sections[i].kind, b.sections[i].kind);
    EXPECT_EQ(a.sections[i].flags, b.sections[i].flags);
    EXPECT_EQ(a.sections[i].payload, b.sections[i].payload);
  }
}

// ---------- round trips across codecs ----------

class FormatRoundTrip : public ::testing::TestWithParam<codec::CodecId> {};

TEST_P(FormatRoundTrip, EncodeDecodePreservesEverything) {
  const CheckpointFile f = sample_file(GetParam(), 4096);
  const Bytes blob = encode_checkpoint(f);
  const CheckpointFile back = decode_checkpoint(blob);
  expect_equal_files(f, back);
}

TEST_P(FormatRoundTrip, EncodingIsDeterministic) {
  const CheckpointFile f = sample_file(GetParam());
  EXPECT_EQ(encode_checkpoint(f), encode_checkpoint(f));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, FormatRoundTrip,
    ::testing::ValuesIn(std::vector<codec::CodecId>(
        std::begin(codec::kAllCodecs), std::end(codec::kAllCodecs))),
    [](const auto& info) {
      std::string n = codec::codec_name(info.param);
      for (char& c : n) {
        if (c == '+') {
          c = '_';
        }
      }
      return n;
    });

TEST(Format, EmptySectionsAndZeroLengthPayloads) {
  CheckpointFile f;
  f.checkpoint_id = 1;
  const Bytes blob = encode_checkpoint(f);
  expect_equal_files(f, decode_checkpoint(blob));

  CheckpointFile g;
  g.checkpoint_id = 2;
  g.sections.push_back(Section{.kind = SectionKind::kParams,
                               .codec = codec::CodecId::kLz,
                               .flags = 0,
                               .payload = {}});
  expect_equal_files(g, decode_checkpoint(encode_checkpoint(g)));
}

TEST(Format, FindLocatesSections) {
  const CheckpointFile f = sample_file(codec::CodecId::kRaw);
  ASSERT_NE(f.find(SectionKind::kParams), nullptr);
  EXPECT_EQ(f.find(SectionKind::kParams)->payload.size(), 800u);
  EXPECT_EQ(f.find(SectionKind::kSimulator), nullptr);
}

TEST(Format, DeltaFlagSurvivesRoundTrip) {
  CheckpointFile f = sample_file(codec::CodecId::kRle);
  f.parent_id = 6;
  f.sections[0].flags |= kSectionFlagDelta;
  const CheckpointFile back = decode_checkpoint(encode_checkpoint(f));
  EXPECT_TRUE(back.is_incremental());
  EXPECT_TRUE(back.sections[0].is_delta());
  EXPECT_FALSE(back.sections[1].is_delta());
}

// ---------- extern sections (content-addressed) ----------

/// Minimal in-memory chunk store for format-level tests (the real one
/// lives in ckpt/cas.hpp and has its own suite).
class MapChunkStore : public ChunkSink, public ChunkSource {
 public:
  bool contains(const ChunkKey& key) override {
    ++queries;
    const bool hit = chunks.contains(key);
    hits += hit ? 1 : 0;
    return hit;
  }
  void put(const ChunkKey& key, codec::CodecId codec,
           ByteSpan encoded) override {
    stored_bytes += encoded.size();
    put_order.push_back(key);
    chunks.emplace(
        key, std::make_pair(codec, Bytes(encoded.begin(), encoded.end())));
  }
  Bytes get(const ChunkKey& key) override {
    ++gets[key];
    const auto it = chunks.find(key);
    if (it == chunks.end()) {
      throw std::runtime_error("chunk missing: " + chunk_key_name(key));
    }
    return codec::decode(it->second.first, it->second.second, key.len);
  }

  std::map<ChunkKey, std::pair<codec::CodecId, Bytes>> chunks;
  std::vector<ChunkKey> put_order;  ///< every put, duplicates included
  std::map<ChunkKey, std::uint64_t> gets;  ///< fetches per key
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t stored_bytes = 0;
};

class ExternRoundTrip : public ::testing::TestWithParam<codec::CodecId> {};

TEST_P(ExternRoundTrip, ChunksExternaliseAndRoundTrip) {
  const CheckpointFile f = sample_file(GetParam(), 8192);
  MapChunkStore store;
  EncodeOptions options;
  options.chunk_bytes = 512;
  options.sink = &store;
  const Bytes blob = encode_checkpoint(f, options);
  // The file carries key tables, not payloads: it must be far smaller
  // than the payload it represents.
  EXPECT_LT(blob.size(), 2048u);
  EXPECT_GT(store.chunks.size(), 0u);
  const CheckpointFile back =
      decode_checkpoint(blob, DecodeOptions{.source = &store});
  expect_equal_files(f, back);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, ExternRoundTrip,
    ::testing::ValuesIn(std::vector<codec::CodecId>(
        std::begin(codec::kAllCodecs), std::end(codec::kAllCodecs))),
    [](const auto& info) {
      std::string n = codec::codec_name(info.param);
      for (char& c : n) {
        if (c == '+') {
          c = '_';
        }
      }
      return n;
    });

/// The version field of an encoded container.
std::uint16_t version_of(ByteSpan blob) {
  std::size_t off = 4;
  return util::get_le<std::uint16_t>(blob, off);
}

/// The sflags byte of each section header of an encoded container.
std::vector<std::uint8_t> section_flags(ByteSpan blob) {
  std::size_t off = 4 + 2 + 2 + 8 * 4;  // magic, version, flags, ids/times
  const auto n_sections = util::get_le<std::uint32_t>(blob, off);
  std::vector<std::uint8_t> flags;
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    (void)util::get_le<std::uint16_t>(blob, off);  // kind
    (void)util::get_le<std::uint8_t>(blob, off);   // codec
    flags.push_back(util::get_le<std::uint8_t>(blob, off));
    (void)util::get_le<std::uint64_t>(blob, off);  // raw_len
    const auto enc_len = util::get_le<std::uint64_t>(blob, off);
    (void)util::get_le<std::uint32_t>(blob, off);  // crc
    off += enc_len;
  }
  return flags;
}

TEST(Extern, EveryEncodeWritesVersion3) {
  // With a sink, the three sections above 512 bytes go extern; without
  // one, every section is stored inline and the file decodes with no
  // chunk source, whatever its size.
  const CheckpointFile f = sample_file(codec::CodecId::kRaw, 4096);
  MapChunkStore store;
  EncodeOptions options;
  options.chunk_bytes = 512;
  options.sink = &store;
  const Bytes with_sink = encode_checkpoint(f, options);
  EXPECT_EQ(version_of(with_sink), kFormatVersion);
  EXPECT_EQ(section_flags(with_sink),
            (std::vector<std::uint8_t>{kSectionFlagExtern, kSectionFlagExtern,
                                       0, kSectionFlagExtern}));

  options.sink = nullptr;
  const Bytes without_sink = encode_checkpoint(f, options);
  EXPECT_EQ(version_of(without_sink), kFormatVersion);
  EXPECT_EQ(section_flags(without_sink), std::vector<std::uint8_t>(4, 0));
  EXPECT_TRUE(list_chunk_refs(without_sink).empty());
  expect_equal_files(f, decode_checkpoint(without_sink));
}

TEST(Extern, SmallSectionsStayInline) {
  // At most chunk_bytes, a section is stored inline even with a sink:
  // nothing reaches the chunk store.
  const CheckpointFile f = sample_file(codec::CodecId::kRaw);
  MapChunkStore store;
  EncodeOptions options;  // 1 MiB chunks
  options.sink = &store;
  const Bytes blob = encode_checkpoint(f, options);
  EXPECT_EQ(section_flags(blob),
            std::vector<std::uint8_t>(f.sections.size(), 0));
  EXPECT_EQ(store.queries, 0u);
  expect_equal_files(f, decode_checkpoint(blob));
}

TEST(Extern, ParallelEncodeIsByteIdenticalToSerial) {
  const CheckpointFile f = sample_file(codec::CodecId::kLz, 16384);
  MapChunkStore serial_store;
  MapChunkStore parallel_store;
  EncodeOptions serial;
  serial.chunk_bytes = 256;
  serial.sink = &serial_store;
  EncodeOptions parallel = serial;
  util::ThreadPool pool(4);
  parallel.pool = &pool;
  parallel.sink = &parallel_store;
  EXPECT_EQ(encode_checkpoint(f, serial), encode_checkpoint(f, parallel));
  EXPECT_EQ(serial_store.put_order, parallel_store.put_order);
  EXPECT_EQ(serial_store.chunks, parallel_store.chunks);
}

TEST(Extern, TinyChunkSizeIsClampedNotFatal) {
  // chunk_bytes below the format's minimum encodes as the minimum.
  const CheckpointFile f = sample_file(codec::CodecId::kRle, 4096);
  MapChunkStore store;
  EncodeOptions options;
  options.chunk_bytes = 1;
  options.sink = &store;
  const Bytes blob = encode_checkpoint(f, options);
  MapChunkStore at_minimum;
  options.chunk_bytes = kMinChunkBytes;
  options.sink = &at_minimum;
  EXPECT_EQ(blob, encode_checkpoint(f, options));
  EXPECT_EQ(store.chunks, at_minimum.chunks);
  expect_equal_files(f,
                     decode_checkpoint(blob, DecodeOptions{.source = &store}));
}

TEST(Extern, SecondEncodeStoresNothingNew) {
  const CheckpointFile f = sample_file(codec::CodecId::kLz, 8192);
  MapChunkStore store;
  EncodeOptions options;
  options.chunk_bytes = 512;
  options.sink = &store;
  const Bytes first = encode_checkpoint(f, options);
  const std::uint64_t stored_after_first = store.stored_bytes;
  const std::size_t chunks_after_first = store.chunks.size();
  const Bytes second = encode_checkpoint(f, options);
  // Identical content: every chunk is a dedup hit, nothing new stored,
  // and the file bytes are identical (same keys, same tables).
  EXPECT_EQ(store.stored_bytes, stored_after_first);
  EXPECT_EQ(store.chunks.size(), chunks_after_first);
  EXPECT_EQ(first, second);
  EXPECT_EQ(store.hits, chunks_after_first);
}

TEST(Extern, StrictDecodeWithoutSourceFails) {
  const CheckpointFile f = sample_file(codec::CodecId::kRaw, 4096);
  MapChunkStore store;
  EncodeOptions options;
  options.chunk_bytes = 512;
  options.sink = &store;
  const Bytes blob = encode_checkpoint(f, options);
  EXPECT_THROW(decode_checkpoint(blob), CorruptCheckpoint);
  // Salvage keeps the inline sections and reports the extern ones.
  const auto salvaged = salvage_checkpoint(blob);
  ASSERT_TRUE(salvaged.file.has_value());
  EXPECT_FALSE(salvaged.fully_intact);
  EXPECT_NE(salvaged.file->find(SectionKind::kRng), nullptr);
  EXPECT_EQ(salvaged.file->find(SectionKind::kSimulator), nullptr);
}

TEST(Extern, MissingChunkDetected) {
  const CheckpointFile f = sample_file(codec::CodecId::kRaw, 4096);
  MapChunkStore store;
  EncodeOptions options;
  options.chunk_bytes = 512;
  options.sink = &store;
  const Bytes blob = encode_checkpoint(f, options);
  ASSERT_FALSE(store.chunks.empty());
  store.chunks.erase(std::prev(store.chunks.end()));
  EXPECT_THROW(decode_checkpoint(blob, DecodeOptions{.source = &store}),
               CorruptCheckpoint);
}

TEST(Extern, CorruptChunkBytesDetected) {
  const CheckpointFile f = sample_file(codec::CodecId::kRaw, 4096);
  MapChunkStore store;
  EncodeOptions options;
  options.chunk_bytes = 512;
  options.sink = &store;
  const Bytes blob = encode_checkpoint(f, options);
  // Corrupt one stored chunk: the decoder must re-verify the digest even
  // when the source itself performs no checks.
  for (auto& [key, stored] : store.chunks) {
    if (!stored.second.empty()) {
      stored.second[stored.second.size() / 2] ^= 0x01;
      break;
    }
  }
  EXPECT_THROW(decode_checkpoint(blob, DecodeOptions{.source = &store}),
               CorruptCheckpoint);
}

TEST(Extern, ListChunkRefsReturnsKeysInOrder) {
  const CheckpointFile f = sample_file(codec::CodecId::kRaw, 4096);
  MapChunkStore store;
  EncodeOptions options;
  options.chunk_bytes = 512;
  options.sink = &store;
  const Bytes blob = encode_checkpoint(f, options);
  const auto refs = list_chunk_refs(blob);
  // Three sections exceed 512 bytes (params 800, optimizer 1600,
  // simulator 4096): ceil((800 - 8)/512) + ceil(1600/512) +
  // ceil(4096/512); the params count prefix rides with its first chunk.
  EXPECT_EQ(refs.size(), 2u + 4u + 8u);
  // Every listed key resolves and reassembles the payload it names.
  for (const ChunkKey& key : refs) {
    EXPECT_EQ(store.get(key).size(), key.len);
  }
  // An encode without a sink references nothing.
  EXPECT_TRUE(list_chunk_refs(encode_checkpoint(f)).empty());
  // A damaged v3 file must refuse to yield refs (refcount rebuilds must
  // not trust unverifiable bytes).
  Bytes damaged = blob;
  damaged[damaged.size() / 2] ^= 0x01;
  EXPECT_THROW(list_chunk_refs(damaged), CorruptCheckpoint);
}

TEST(Extern, ChunkKeyNameIsHexCrcDashLength) {
  EXPECT_EQ(chunk_key_name(ChunkKey{.crc = 0xDEADBEEF, .len = 123456}),
            "deadbeef-123456");
  EXPECT_EQ(chunk_key_name(ChunkKey{.crc = 0x1, .len = 0}), "00000001-0");
}

// ---------- extern chunk cuts on the element grid ----------

/// `v` in util::put_vector layout (u64 count | f64 elements), the
/// payload layout of kParams and kLossHistory.
Bytes vector_payload(const std::vector<double>& v) {
  Bytes out;
  util::put_vector(out, v);
  return out;
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

CheckpointFile one_section_file(SectionKind kind, Bytes payload) {
  CheckpointFile f;
  f.checkpoint_id = 11;
  f.step = 4;
  f.sections.push_back(Section{.kind = kind,
                               .codec = codec::CodecId::kLz,
                               .flags = 0,
                               .payload = std::move(payload)});
  return f;
}

EncodeOptions extern_options(MapChunkStore& store, std::size_t chunk_bytes) {
  EncodeOptions options;
  options.chunk_bytes = chunk_bytes;
  options.sink = &store;
  return options;
}

/// Raw chunk lengths of a v3 file's extern sections, in table order.
std::vector<std::uint64_t> chunk_lengths(ByteSpan blob) {
  std::vector<std::uint64_t> lengths;
  for (const ChunkKey& key : list_chunk_refs(blob)) {
    lengths.push_back(key.len);
  }
  return lengths;
}

TEST(ExternGrid, ArrayKindsCutOnTheElementGrid) {
  // 37 doubles: a u64 count, then 296 array bytes.
  const Bytes payload = vector_payload(random_doubles(37, 5));
  const std::vector<std::pair<SectionKind, std::vector<std::uint64_t>>>
      cases = {
          // The first chunk carries the count, so every later cut falls
          // on an element boundary.
          {SectionKind::kParams, {72, 64, 64, 64, 40}},
          // Byte strings keep cutting from payload byte 0.
          {SectionKind::kOptimizer, {64, 64, 64, 64, 48}},
      };
  for (const auto& [kind, lengths] : cases) {
    const CheckpointFile f = one_section_file(kind, payload);
    MapChunkStore store;
    const Bytes blob = encode_checkpoint(f, extern_options(store, 64));
    EXPECT_EQ(chunk_lengths(blob), lengths) << section_kind_name(kind);
    expect_equal_files(
        f, decode_checkpoint(blob, DecodeOptions{.source = &store}));
  }
}

TEST(ExternGrid, RewrittenAlignedBlockMissesOneChunk) {
  // 64 doubles: eight 64-byte blocks of the array.
  std::vector<double> params = random_doubles(64, 9);
  MapChunkStore store;
  const EncodeOptions options = extern_options(store, 64);
  const auto misses_of_encode = [&] {
    const std::uint64_t queries = store.queries;
    const std::uint64_t hits = store.hits;
    (void)encode_checkpoint(
        one_section_file(SectionKind::kParams, vector_payload(params)),
        options);
    EXPECT_EQ(store.queries - queries, 8u) << "one key per array block";
    return (store.queries - queries) - (store.hits - hits);
  };
  EXPECT_EQ(misses_of_encode(), 8u);
  // Rewrite array bytes [192, 256) in place: one block, one new chunk.
  const std::vector<double> block = random_doubles(8, 10);
  std::copy(block.begin(), block.end(), params.begin() + 24);
  EXPECT_EQ(misses_of_encode(), 1u);
}

TEST(ExternGrid, ArrayOffsetMatchesTheStateCodecLayout) {
  // The cut grid is only right while section_array_offset agrees with
  // where state_codec puts each array.
  qnn::TrainingState s;
  s.params = {0.5, -1.25, 3.0};
  s.permutation = {4, 0, 2, 1, 3};
  s.loss_history = {1.0, 0.5};
  const auto expect_array_at_offset = [&](SectionKind kind, ByteSpan array) {
    const Bytes payload = encode_section_payload(kind, s);
    const std::size_t offset = section_array_offset(kind);
    ASSERT_EQ(payload.size(), offset + array.size())
        << section_kind_name(kind);
    EXPECT_TRUE(std::equal(
        array.begin(), array.end(),
        payload.begin() + static_cast<std::ptrdiff_t>(offset)))
        << section_kind_name(kind);
  };
  expect_array_at_offset(SectionKind::kParams, util::as_bytes(s.params));
  expect_array_at_offset(SectionKind::kDataCursor,
                         util::as_bytes(s.permutation));
  expect_array_at_offset(SectionKind::kLossHistory,
                         util::as_bytes(s.loss_history));
  for (const SectionKind kind :
       {SectionKind::kMeta, SectionKind::kOptimizer, SectionKind::kRng,
        SectionKind::kSimulator}) {
    EXPECT_EQ(section_array_offset(kind), 0u) << section_kind_name(kind);
  }
}

Bytes encode_sections(std::vector<Section> sections,
                      const EncodeOptions& options) {
  CheckpointFile f;
  f.checkpoint_id = 3;
  f.step = 9;
  f.sections = std::move(sections);
  return encode_checkpoint(f, options);
}

TEST(ExternGrid, ViewedStateEncodesLikeOwnedPayloads) {
  // 100 doubles: an 808-byte params payload whose first chunk spans the
  // owned count and the viewed elements at 64 and at 256 bytes, and a
  // 300-byte optimizer string, extern at both sizes. The cursor (20
  // bytes) is an inline section of both parts. Without a sink every
  // section is inline, the viewed ones assembled whole.
  qnn::TrainingState s;
  s.workload_tag = "vqe";
  s.optimizer_name = "adam";
  s.step = 9;
  s.params = random_doubles(100, 21);
  s.optimizer_state = random_bytes(300, 22);
  s.rng_state = random_bytes(40, 23);
  s.permutation = {2, 0, 1};
  s.loss_history = {0.5, 0.25};
  s.simulator_state = random_bytes(200, 24);
  const auto viewed = view_state_sections(s, true, codec::CodecId::kLz);
  const auto owned = state_to_sections(s, true, codec::CodecId::kLz);
  const ByteSpan params = util::as_bytes(s.params);
  ASSERT_EQ(viewed[1].kind, SectionKind::kParams);
  ASSERT_EQ(viewed[1].payload.size(), 8u) << "the count, owned";
  ASSERT_EQ(viewed[1].view.data(), params.data());
  for (const std::size_t chunk_bytes : {std::size_t{64}, std::size_t{256}}) {
    for (const bool with_sink : {true, false}) {
      MapChunkStore viewed_store;
      MapChunkStore owned_store;
      EncodeOptions options;
      options.chunk_bytes = chunk_bytes;
      options.sink = with_sink ? &viewed_store : nullptr;
      const Bytes blob = encode_sections(viewed, options);
      options.sink = with_sink ? &owned_store : nullptr;
      EXPECT_EQ(encode_sections(owned, options), blob)
          << "chunk_bytes " << chunk_bytes << ", sink " << with_sink;
      EXPECT_EQ(viewed_store.put_order, owned_store.put_order);
      EXPECT_EQ(viewed_store.chunks, owned_store.chunks);
      const DecodeOptions from{.source = &viewed_store};
      EXPECT_EQ(sections_to_state(decode_checkpoint(blob, from).sections), s);
    }
  }
}

TEST(ExternGrid, PayloadSplitAnywhereEncodesLikeOneBuffer) {
  // A byte string whose owned part ends inside a later chunk, on a cut,
  // or past the end: only a straddling chunk is assembled, and the bytes
  // never change.
  const Bytes whole = random_bytes(300, 31);
  const CheckpointFile f0 = one_section_file(SectionKind::kOptimizer, whole);
  MapChunkStore reference;
  const Bytes expected = encode_checkpoint(f0, extern_options(reference, 64));
  for (const std::size_t split : {0, 1, 100, 128, 299, 300}) {
    CheckpointFile f = f0;
    f.sections[0].payload.resize(split);
    f.sections[0].view = ByteSpan(whole).subspan(split);
    MapChunkStore store;
    EXPECT_EQ(encode_checkpoint(f, extern_options(store, 64)), expected)
        << "split at " << split;
    EXPECT_EQ(store.put_order, reference.put_order) << "split at " << split;
  }
}

TEST(ExternGrid, DuplicateChunksWithinAFileAreCompressedOnce) {
  // 16 identical chunks at window 4: the first misses, and the second's
  // key puts it before its own probe, so it and every later chunk dedup
  // against the one stored record.
  MapChunkStore store;
  EncodeOptions options = extern_options(store, 64);
  options.encode_window = 4;
  const CheckpointFile f =
      one_section_file(SectionKind::kSimulator, Bytes(16 * 64, 0));
  const Bytes blob = encode_checkpoint(f, options);
  EXPECT_EQ(store.queries, 16u);
  EXPECT_EQ(store.put_order.size(), 1u);
  EXPECT_EQ(store.hits, 15u);
  const DecodeOptions from{.source = &store};
  expect_equal_files(f, decode_checkpoint(blob, from));

  // Repeats whose first copy the pool may still be compressing: chunks
  // A A B C D B. At both windows A's repeat is probed while A is between
  // probe and put; at window 4 so is B's. Each repeat puts its first
  // copy before its own probe, which hits.
  const Bytes a = random_bytes(64, 61);
  const Bytes b = random_bytes(64, 62);
  Bytes payload;
  for (const Bytes& chunk : {a, a, b, random_bytes(64, 63),
                             random_bytes(64, 64), b}) {
    payload.insert(payload.end(), chunk.begin(), chunk.end());
  }
  const CheckpointFile repeats =
      one_section_file(SectionKind::kOptimizer, payload);
  util::ThreadPool pool(2);
  for (const std::size_t window : {2, 4}) {
    MapChunkStore pooled_store;
    EncodeOptions pooled = extern_options(pooled_store, 64);
    pooled.encode_window = window;
    pooled.pool = &pool;
    const Bytes pooled_blob = encode_checkpoint(repeats, pooled);
    EXPECT_EQ(pooled_store.queries, 6u) << "window " << window;
    EXPECT_EQ(pooled_store.hits, 2u) << "window " << window;
    const auto refs = list_chunk_refs(pooled_blob);
    EXPECT_EQ(pooled_store.put_order,
              (std::vector<ChunkKey>{refs[0], refs[2], refs[3], refs[4]}))
        << "window " << window;
    expect_equal_files(
        repeats, decode_checkpoint(pooled_blob, {.source = &pooled_store}));
  }
}

TEST(ExternGrid, EncodedChunksInFlightStayWithinTheWindow) {
  // 40 distinct chunks that LZ halves (noise, then zeros), in a params
  // section, so chunk 0 also carries the 8-byte count. Whatever the pool
  // gets through, at most `window` encoded chunks exist at once; all 40
  // at once would be about 85 KB.
  constexpr std::size_t kChunk = 4096;
  Bytes payload(8, 0);
  for (std::uint64_t c = 0; c < 40; ++c) {
    const Bytes noise = random_bytes(kChunk / 2, 70 + c);
    payload.insert(payload.end(), noise.begin(), noise.end());
    payload.insert(payload.end(), kChunk / 2, 0);
  }
  const CheckpointFile f = one_section_file(SectionKind::kParams, payload);
  util::ThreadPool pool(3);
  for (const std::size_t window : {2, 4, 7}) {
    MapChunkStore store;
    EncodeOptions options = extern_options(store, kChunk);
    options.encode_window = window;
    options.pool = &pool;
    obs::Gauge registry_peak;
    util::MemGauge gauge(registry_peak);
    options.gauge = &gauge;
    const Bytes blob = encode_checkpoint(f, options);
    ASSERT_EQ(store.put_order.size(), 40u);
    for (const auto& [key, stored] : store.chunks) {
      EXPECT_EQ(stored.first, codec::CodecId::kLz);
      EXPECT_LT(stored.second.size(), kChunk);
    }
    EXPECT_GT(gauge.peak(), 0u);
    EXPECT_LE(gauge.peak(), window * kChunk + 8) << "window " << window;
    expect_equal_files(f, decode_checkpoint(blob, {.source = &store}));
  }
}

/// A sink over a MapChunkStore whose `fail_on`-th put throws before it
/// stores anything.
class FailingPutStore final : public ChunkSink {
 public:
  explicit FailingPutStore(std::size_t fail_on) : fail_on_(fail_on) {}
  bool contains(const ChunkKey& key) override { return inner.contains(key); }
  void put(const ChunkKey& key, codec::CodecId codec,
           ByteSpan encoded) override {
    if (++puts_ == fail_on_) {
      throw std::runtime_error("injected put failure");
    }
    inner.put(key, codec, encoded);
  }

  MapChunkStore inner;

 private:
  const std::size_t fail_on_;
  std::size_t puts_ = 0;
};

TEST(ExternGrid, FailedPutWaitsForEveryPoolTask) {
  // The third put throws while later misses wait to be compressed. The
  // encode rethrows only once no task of it is queued or running. With
  // the pool's one worker held busy, every task waits in the queue until
  // the caller runs it, so a task left behind would still be queued;
  // with the worker free, the payload the tasks read is freed at once,
  // and ASan and TSan report a task that reads it later.
  util::ThreadPool pool(1);
  for (const bool held : {true, false}) {
    std::promise<void> started;
    std::promise<void> release;
    std::future<void> holder;
    if (held) {
      holder = pool.submit(
          [&started, released = release.get_future().share()] {
            started.set_value();
            released.wait();
          });
      started.get_future().wait();
    }
    for (const std::size_t window : {2, 4, 7}) {
      SCOPED_TRACE(std::string(held ? "held" : "free") + " worker, window " +
                   std::to_string(window));
      auto f = std::make_unique<CheckpointFile>(
          one_section_file(SectionKind::kSimulator, Bytes{}));
      for (std::uint64_t c = 0; c < 64; ++c) {
        const Bytes noise = random_bytes(2048, 90 + c);
        Bytes& p = f->sections[0].payload;
        p.insert(p.end(), noise.begin(), noise.end());
        p.insert(p.end(), 2048, 0);
      }
      FailingPutStore store(3);
      EncodeOptions options;
      options.chunk_bytes = 4096;
      options.sink = &store;
      options.encode_window = window;
      options.pool = &pool;
      EXPECT_THROW((void)encode_checkpoint(*f, options), std::runtime_error);
      f.reset();
      if (held) {
        EXPECT_FALSE(pool.run_pending_task());
      }
      EXPECT_EQ(store.inner.put_order.size(), 2u);
    }
    if (held) {
      release.set_value();
      holder.get();
    }
  }
}

/// Decodes `blob` from `store` with every payload landing in `target`:
/// XOR-ed into it, or copied over it.
void land_from(MapChunkStore& store, ByteSpan blob, Bytes& target,
               bool xor_into) {
  const DecodeOptions options{
      .source = &store,
      .place = [&](const Section&, std::uint64_t) {
        return PayloadTarget{.bytes = target, .xor_into = xor_into};
      }};
  (void)decode_checkpoint(blob, options);
}

TEST(ExternGrid, DeltaFetchesARepeatedZeroChunkOnce) {
  // A delta's unchanged chunks are all zero and share one key: the first
  // is fetched and verified, and its repeats XOR nothing in, unfetched.
  const Bytes base = random_bytes(64 * 12, 51);
  Bytes next = base;
  next[70] ^= 0x5A;   // chunk 1
  next[400] ^= 0x01;  // chunk 6
  Bytes delta = next;
  codec::xor_with_parent_inplace(delta, base);
  CheckpointFile f = one_section_file(SectionKind::kOptimizer, delta);
  f.sections[0].flags |= kSectionFlagDelta;
  MapChunkStore store;
  const Bytes blob = encode_checkpoint(f, extern_options(store, 64));

  Bytes applied = base;
  land_from(store, blob, applied, /*xor_into=*/true);
  EXPECT_EQ(applied, next);
  const ChunkKey zero = chunk_key(Bytes(64, 0));
  EXPECT_EQ(store.gets[zero], 1u) << "10 of 12 chunks share the zero key";
  EXPECT_EQ(store.gets.size(), 3u);
}

TEST(ExternGrid, FullSectionLandsRepeatedZeroChunksAsZeros) {
  // Copied over stale bytes, each repeat of a verified zero chunk is a
  // zero fill, not a fetch.
  Bytes payload = random_bytes(64 * 12, 52);
  std::fill(payload.begin() + 64 * 2, payload.begin() + 64 * 9, 0);
  const CheckpointFile f = one_section_file(SectionKind::kSimulator, payload);
  MapChunkStore store;
  const Bytes blob = encode_checkpoint(f, extern_options(store, 64));

  Bytes landed(payload.size(), 0xAB);
  land_from(store, blob, landed, /*xor_into=*/false);
  EXPECT_EQ(landed, payload);
  EXPECT_EQ(store.gets[chunk_key(Bytes(64, 0))], 1u);
  // Without a placement each payload is a fresh buffer; same bytes.
  expect_equal_files(f, decode_checkpoint(blob, {.source = &store}));
}

TEST(ExternGrid, MissWavesStoreTheSameRecordsForAnyWindow) {
  // Resident chunks, fresh ones, and repeats of one, encoded serially one
  // miss at a time and in parallel waves: the same probes, the same puts
  // in the same order, the same container.
  Bytes payload = random_bytes(64 * 40, 41);
  const Bytes resident = random_bytes(64 * 8, 42);
  const auto chunk = [&](std::size_t c) {
    return payload.begin() + static_cast<std::ptrdiff_t>(64 * c);
  };
  std::copy(resident.begin(), resident.end(), chunk(20));
  for (const std::size_t c : {10, 13, 16, 19, 28, 31, 34, 37, 39}) {
    std::copy_n(chunk(5), 64, chunk(c));
  }
  const CheckpointFile stored = one_section_file(SectionKind::kRng, resident);
  const CheckpointFile file = one_section_file(SectionKind::kRng, payload);
  util::ThreadPool pool(3);
  std::optional<Bytes> first_blob;
  std::vector<ChunkKey> first_puts;
  for (const std::size_t window : {1, 2, 4, 7, 16}) {
    MapChunkStore store;
    (void)encode_checkpoint(stored, extern_options(store, 64));
    store.put_order.clear();
    EncodeOptions options = extern_options(store, 64);
    options.encode_window = window;
    options.pool = window == 1 ? nullptr : &pool;
    const Bytes blob = encode_checkpoint(file, options);
    if (!first_blob) {
      first_blob = blob;
      first_puts = store.put_order;
      continue;
    }
    EXPECT_EQ(blob, *first_blob) << "window " << window;
    EXPECT_EQ(store.put_order, first_puts) << "window " << window;
  }
  // 40 chunks: 8 were resident (20..27) and 9 repeat chunk 5.
  EXPECT_EQ(first_puts.size(), 40u - 8u - 9u);
}

// ---------- what is stored: the codec's output, or the raw bytes ----------

constexpr std::size_t k64KiB = std::size_t{64} << 10;

/// Eight 64 KiB chunks alternating noise (even) and zeros (odd).
Bytes noise_and_zero_chunks() {
  const Bytes zeros(k64KiB, 0);
  Bytes payload;
  for (std::uint64_t c = 0; c < 8; ++c) {
    const Bytes chunk = c % 2 == 0 ? random_bytes(k64KiB, 50 + c) : zeros;
    payload.insert(payload.end(), chunk.begin(), chunk.end());
  }
  return payload;
}

/// The section index of an encoded container (headers only).
CheckpointIndex index_of(ByteSpan blob) {
  io::MemEnv env;
  env.write_file_atomic("f", blob);
  return read_checkpoint_index(env, "f");
}

TEST(StoredForm, IncompressibleChunksAreStoredRaw) {
  const Bytes payload = noise_and_zero_chunks();
  const CheckpointFile f = one_section_file(SectionKind::kSimulator, payload);
  MapChunkStore store;
  const Bytes blob = encode_checkpoint(f, extern_options(store, k64KiB));
  std::vector<ChunkKey> cut_keys;
  for (std::size_t c = 0; c < 8; ++c) {
    const ByteSpan chunk = ByteSpan(payload).subspan(c * k64KiB, k64KiB);
    cut_keys.push_back(chunk_key(chunk));
    const auto& [codec, bytes] = store.chunks.at(cut_keys.back());
    if (c % 2 == 0) {
      EXPECT_EQ(codec, codec::CodecId::kRaw) << "chunk " << c;
      EXPECT_TRUE(std::ranges::equal(bytes, chunk)) << "chunk " << c;
    } else {
      EXPECT_EQ(codec, codec::CodecId::kLz) << "chunk " << c;
      EXPECT_LT(bytes.size(), 64u) << "chunk " << c;
    }
  }
  EXPECT_EQ(store.chunks.size(), 5u) << "4 noise chunks, 1 zero chunk";
  EXPECT_EQ(list_chunk_refs(blob), cut_keys);
  // The container's section header keeps the section's codec.
  EXPECT_EQ(index_of(blob).sections.at(0).codec, codec::CodecId::kLz);
  const DecodeOptions from{.source = &store};
  expect_equal_files(f, decode_checkpoint(blob, from));
}

TEST(StoredForm, ResidentLzRecordOfANoiseChunkIsADedupHit) {
  // A directory written before raw records holds noise chunks as kLz
  // records: the same key is a hit, nothing is stored again, and the
  // section decodes through the old record.
  const Bytes payload = noise_and_zero_chunks();
  const ByteSpan noise = ByteSpan(payload).first(k64KiB);
  const ChunkKey key = chunk_key(noise);
  MapChunkStore store;
  store.put(key, codec::CodecId::kLz, codec::lz_encode(noise));
  store.put_order.clear();
  const CheckpointFile f = one_section_file(SectionKind::kSimulator, payload);
  const Bytes blob = encode_checkpoint(f, extern_options(store, k64KiB));
  EXPECT_EQ(store.hits, 4u) << "the resident chunk and 3 repeated zeros";
  EXPECT_EQ(store.put_order.size(), 4u);
  EXPECT_EQ(std::ranges::count(store.put_order, key), 0);
  EXPECT_EQ(store.chunks.at(key).first, codec::CodecId::kLz);
  const DecodeOptions from{.source = &store};
  expect_equal_files(f, decode_checkpoint(blob, from));
}

TEST(StoredForm, IncompressibleInlineSectionIsStoredRaw) {
  const CheckpointFile f =
      one_section_file(SectionKind::kSimulator, random_bytes(4 * k64KiB, 56));
  for (const bool with_sink : {true, false}) {
    MapChunkStore store;
    EncodeOptions options;  // 1 MiB chunks: the section stays inline
    options.sink = with_sink ? &store : nullptr;
    const Bytes blob = encode_checkpoint(f, options);
    const CheckpointIndex index = index_of(blob);
    ASSERT_EQ(index.version, kFormatVersion);
    const SectionIndexEntry& s = index.sections.at(0);
    EXPECT_EQ(s.flags, 0) << "sink " << with_sink;
    EXPECT_EQ(s.codec, codec::CodecId::kRaw) << "sink " << with_sink;
    EXPECT_EQ(s.enc_len, s.raw_len) << "sink " << with_sink;
    EXPECT_TRUE(store.chunks.empty());
    expect_equal_files(f, decode_checkpoint(blob));
  }
}

TEST(StoredForm, NoPayloadOf64KiBOrMoreIsStoredLarger) {
  // Noise, redundant and mixed payloads under every codec, as extern
  // chunks (64 KiB) and as inline sections: nothing of 64 KiB or more
  // is stored larger than its raw bytes.
  Bytes tail_zeros = random_bytes(3 * k64KiB, 57);
  tail_zeros.resize(4 * k64KiB, 0);
  const std::vector<std::pair<SectionKind, Bytes>> payloads = {
      {SectionKind::kSimulator, random_bytes(4 * k64KiB + 100, 59)},
      {SectionKind::kOptimizer, noise_and_zero_chunks()},
      {SectionKind::kRng, tail_zeros},
      {SectionKind::kParams, vector_payload(random_doubles(k64KiB / 2, 58))},
      {SectionKind::kLossHistory, Bytes(k64KiB, 7)},
  };
  for (const codec::CodecId id : codec::kAllCodecs) {
    CheckpointFile f;
    f.checkpoint_id = 5;
    for (const auto& [kind, payload] : payloads) {
      Section s{.kind = kind, .codec = id, .flags = 0, .payload = payload};
      f.sections.push_back(std::move(s));
    }
    for (const std::size_t chunk_bytes : {k64KiB, std::size_t{1} << 20}) {
      MapChunkStore store;
      const EncodeOptions options = extern_options(store, chunk_bytes);
      const Bytes blob = encode_checkpoint(f, options);
      for (const SectionIndexEntry& s : index_of(blob).sections) {
        if ((s.flags & kSectionFlagExtern) == 0 && s.raw_len >= k64KiB) {
          EXPECT_LE(s.enc_len, s.raw_len)
              << codec::codec_name(id) << " " << section_kind_name(s.kind);
        }
      }
      for (const auto& [key, record] : store.chunks) {
        if (key.len >= k64KiB) {
          EXPECT_LE(record.second.size(), key.len)
              << codec::codec_name(id) << " " << chunk_key_name(key);
        }
      }
      const DecodeOptions from{.source = &store};
      expect_equal_files(f, decode_checkpoint(blob, from));
    }
  }
}

// ---------- corruption detection ----------

TEST(FormatCorruption, BadMagicRejected) {
  Bytes blob = encode_checkpoint(sample_file(codec::CodecId::kRaw));
  blob[0] = 'X';
  EXPECT_THROW(decode_checkpoint(blob), CorruptCheckpoint);
}

TEST(FormatCorruption, UnsupportedVersionRejected) {
  Bytes blob = encode_checkpoint(sample_file(codec::CodecId::kRaw));
  blob[4] = 0x7F;  // version low byte
  EXPECT_THROW(decode_checkpoint(blob), CorruptCheckpoint);
}

/// Flip a single bit at a parameterised relative position: every flip
/// anywhere in the file must be detected by strict decoding.
class BitFlipSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitFlipSweep, AnySingleBitFlipDetected) {
  Bytes blob = encode_checkpoint(sample_file(codec::CodecId::kLz, 2048));
  const std::size_t total_bits = blob.size() * 8;
  // 0..99 relative positions spread across the file.
  const std::size_t bit =
      static_cast<std::size_t>(GetParam()) * (total_bits - 1) / 99;
  blob[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  EXPECT_THROW(decode_checkpoint(blob), CorruptCheckpoint) << "bit " << bit;
}

INSTANTIATE_TEST_SUITE_P(HundredPositions, BitFlipSweep,
                         ::testing::Range(0, 100));

/// Truncate the file at a parameterised fraction: all truncations must be
/// detected.
class TruncationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweep, AnyTruncationDetected) {
  Bytes blob = encode_checkpoint(sample_file(codec::CodecId::kRle, 1024));
  const std::size_t keep =
      blob.size() * static_cast<std::size_t>(GetParam()) / 40;
  if (keep >= blob.size() || keep < 4) {
    GTEST_SKIP() << "degenerate cut";
  }
  blob.resize(keep);
  EXPECT_THROW(decode_checkpoint(blob), CorruptCheckpoint);
}

INSTANTIATE_TEST_SUITE_P(FortyCuts, TruncationSweep, ::testing::Range(1, 40));

TEST(FormatCorruption, AppendedGarbageDetected) {
  Bytes blob = encode_checkpoint(sample_file(codec::CodecId::kRaw));
  blob.push_back(0x00);
  EXPECT_THROW(decode_checkpoint(blob), CorruptCheckpoint);
}

// ---------- salvage ----------

TEST(Salvage, IntactFileFullyRecovered) {
  const CheckpointFile f = sample_file(codec::CodecId::kLz);
  const auto result = salvage_checkpoint(encode_checkpoint(f));
  ASSERT_TRUE(result.file.has_value());
  EXPECT_TRUE(result.fully_intact);
  EXPECT_TRUE(result.notes.empty());
  EXPECT_EQ(result.file->sections.size(), f.sections.size());
}

TEST(Salvage, CorruptSectionSkippedOthersSurvive) {
  const CheckpointFile f = sample_file(codec::CodecId::kRaw);
  Bytes blob = encode_checkpoint(f);
  // Corrupt the optimizer section payload: find its bytes. The params
  // section payload (800 raw bytes) starts after the header; flip a byte
  // deep in the second section region.
  blob[100 + 800 + 200] ^= 0xFF;
  const auto result = salvage_checkpoint(blob);
  ASSERT_TRUE(result.file.has_value());
  EXPECT_FALSE(result.fully_intact);
  EXPECT_FALSE(result.notes.empty());
  // params section should have survived; optimizer dropped.
  EXPECT_NE(result.file->find(SectionKind::kParams), nullptr);
  EXPECT_EQ(result.file->find(SectionKind::kOptimizer), nullptr);
}

TEST(Salvage, TailTruncationKeepsLeadingSections) {
  const CheckpointFile f = sample_file(codec::CodecId::kRaw, 4096);
  Bytes blob = encode_checkpoint(f);
  blob.resize(blob.size() - 2048);  // lose the simulator tail + footer
  const auto result = salvage_checkpoint(blob);
  ASSERT_TRUE(result.file.has_value());
  EXPECT_FALSE(result.fully_intact);
  EXPECT_NE(result.file->find(SectionKind::kParams), nullptr);
  EXPECT_EQ(result.file->find(SectionKind::kSimulator), nullptr);
}

TEST(Salvage, HopelessGarbageReturnsNullopt) {
  const Bytes junk = random_bytes(256, 99);
  const auto result = salvage_checkpoint(junk);
  EXPECT_FALSE(result.file.has_value());
  EXPECT_FALSE(result.fully_intact);
}

// ---------- section kind names ----------

TEST(Format, SectionKindNamesStable) {
  EXPECT_EQ(section_kind_name(SectionKind::kParams), "params");
  EXPECT_EQ(section_kind_name(SectionKind::kSimulator), "simulator");
  EXPECT_EQ(section_kind_name(static_cast<SectionKind>(999)),
            "unknown(999)");
}

// ---------- golden fixtures ----------
//
// Byte-exact v1, v2 and v3 checkpoint files, committed as hex. These lock
// the on-disk format: a codec or container change that breaks decoding
// of existing checkpoint files — or silently shifts the encoder's output
// — fails here instead of in a user's recovery path. v1 and v2 are
// decode-only (nothing writes them any more); today's encoder must
// reproduce the v3 fixture bit for bit. If an INTENTIONAL format change
// trips the v3 check, regenerate that blob and say so in the commit
// message; decoding the OLD hex must keep working forever.

Bytes from_hex(const std::string& hex) {
  Bytes out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

Bytes byte_pattern(std::size_t n, std::uint8_t mul, std::uint8_t add) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(i * mul + add);
  }
  return b;
}

/// The logical file both fixtures were generated from (v2 additionally
/// carries a 200-byte simulator section spanning four 64-byte chunks).
CheckpointFile golden_file(bool with_big_section) {
  CheckpointFile f;
  f.checkpoint_id = 3;
  f.parent_id = 2;
  f.step = 40;
  f.time_us = 777;
  f.sections.push_back(Section{.kind = SectionKind::kParams,
                               .codec = codec::CodecId::kRaw,
                               .flags = 0,
                               .payload = byte_pattern(32, 7, 1)});
  Bytes runs;
  for (const int v : {0xAA, 0x55, 0x00}) {
    runs.insert(runs.end(), 16, static_cast<std::uint8_t>(v));
  }
  f.sections.push_back(Section{.kind = SectionKind::kOptimizer,
                               .codec = codec::CodecId::kRle,
                               .flags = 0,
                               .payload = runs});
  f.sections.push_back(Section{.kind = SectionKind::kRng,
                               .codec = codec::CodecId::kLz,
                               .flags = kSectionFlagDelta,
                               .payload = byte_pattern(24, 3, 5)});
  if (with_big_section) {
    f.sections.push_back(Section{.kind = SectionKind::kSimulator,
                                 .codec = codec::CodecId::kLz,
                                 .flags = 0,
                                 .payload = byte_pattern(200, 11, 2)});
  }
  return f;
}

const char* const kFixtureV1 =
    "51434b5001000000030000000000000002000000000000002800000000000000"
    "0903000000000000030000000100000020000000000000002000000000000000"
    "ae98b83401080f161d242b323940474e555c636a71787f868d949ba2a9b0b7be"
    "c5ccd3da020001003000000000000000060000000000000076585d228caa8c55"
    "8c000300020118000000000000001a0000000000000083f17c091805080b0e11"
    "14171a1d202326292c2f3235383b3e4144474a0098143aaab37d3e8f504b4351";

const char* const kFixtureV2 =
    "51434b5002000000030000000000000002000000000000002800000000000000"
    "0903000000000000040000000100000020000000000000002000000000000000"
    "ae98b83401080f161d242b323940474e555c636a71787f868d949ba2a9b0b7be"
    "c5ccd3da020001003000000000000000060000000000000076585d228caa8c55"
    "8c000300020118000000000000001a0000000000000083f17c091805080b0e11"
    "14171a1d202326292c2f3235383b3e4144474a0006000202c800000000000000"
    "2c010000000000008184ea0b0400000040000000000000004000000000000000"
    "4200000000000000c426ee2e40020d18232e39444f5a65707b86919ca7b2bdc8"
    "d3dee9f4ff0a15202b36414c57626d78838e99a4afbac5d0dbe6f1fc07121d28"
    "333e49545f6a75808b96a1acb700400000000000000042000000000000001565"
    "bc2340c2cdd8e3eef9040f1a25303b46515c67727d88939ea9b4bfcad5e0ebf6"
    "010c17222d38434e59646f7a85909ba6b1bcc7d2dde8f3fe09141f2a35404b56"
    "616c770040000000000000004200000000000000690b7fb840828d98a3aeb9c4"
    "cfdae5f0fb06111c27323d48535e69747f8a95a0abb6c1ccd7e2edf8030e1924"
    "2f3a45505b66717c87929da8b3bec9d4dfeaf5000b16212c3700080000000000"
    "00000a00000000000000caeb9f7008424d58636e79848f002ca333156826d871"
    "504b4351";

TEST(GoldenFixture, V1FileStillDecodesByteExact) {
  const Bytes blob = from_hex(kFixtureV1);
  const CheckpointFile back = decode_checkpoint(blob);
  expect_equal_files(golden_file(false), back);
  EXPECT_EQ(back.time_us, 777u);
  // The delta flag must survive the round trip — recovery depends on it.
  ASSERT_NE(back.find(SectionKind::kRng), nullptr);
  EXPECT_TRUE(back.find(SectionKind::kRng)->is_delta());
}

TEST(GoldenFixture, V2ChunkedFileStillDecodesByteExact) {
  const Bytes blob = from_hex(kFixtureV2);
  const CheckpointFile back = decode_checkpoint(blob);
  expect_equal_files(golden_file(true), back);
  // The 200-byte simulator section spanned four 64-byte chunks on disk;
  // decoded Sections always hold the reassembled raw payload.
  ASSERT_NE(back.find(SectionKind::kSimulator), nullptr);
  EXPECT_EQ(back.find(SectionKind::kSimulator)->payload.size(), 200u);
}

TEST(Chunked, ChunkCorruptionDetectedStrictAndSalvaged) {
  // The v2 fixture's simulator section is a frame of four chunks. A flip
  // inside one chunk's stream (the footer CRC64 recomputed over it, so
  // only the section is damaged) fails the section CRC32C; with that
  // recomputed too, the chunk's own CRC32C catches it. Either way strict
  // decode throws and salvage keeps every other section.
  const Bytes fixture = from_hex(kFixtureV2);
  const SectionIndexEntry sim = index_of(fixture).sections.at(3);
  ASSERT_EQ(sim.kind, SectionKind::kSimulator);
  ASSERT_EQ(sim.flags, kSectionFlagChunked);
  // Past the frame preamble (12 bytes) and chunk 0's header (20 bytes).
  const std::size_t in_chunk0 = sim.payload_offset + 12 + 20 + 10;
  const auto overwrite = [](Bytes& blob, std::size_t at, const Bytes& with) {
    std::ranges::copy(with, blob.begin() + static_cast<std::ptrdiff_t>(at));
  };
  for (const bool recompute_section_crc : {false, true}) {
    Bytes blob = fixture;
    blob[in_chunk0] ^= 0xFF;
    if (recompute_section_crc) {
      Bytes crc;
      util::put_le<std::uint32_t>(
          crc, util::crc32c(ByteSpan(blob).subspan(sim.payload_offset,
                                                   sim.enc_len)));
      overwrite(blob, sim.payload_offset - 4, crc);
    }
    Bytes footer;
    util::put_le<std::uint64_t>(
        footer, util::crc64(ByteSpan(blob).first(blob.size() - 12)));
    overwrite(blob, blob.size() - 12, footer);

    EXPECT_THROW(decode_checkpoint(blob), CorruptCheckpoint);
    const auto salvaged = salvage_checkpoint(blob);
    ASSERT_TRUE(salvaged.file.has_value());
    EXPECT_FALSE(salvaged.fully_intact);
    ASSERT_EQ(salvaged.notes.size(), 1u);
    EXPECT_NE(salvaged.notes[0].find(recompute_section_crc
                                         ? "chunk 0: CRC32C mismatch"
                                         : "simulator: CRC32C mismatch"),
              std::string::npos)
        << salvaged.notes[0];
    EXPECT_EQ(salvaged.file->sections.size(), 3u);
    EXPECT_EQ(salvaged.file->find(SectionKind::kSimulator), nullptr);
  }
}

// The v3 fixture: same logical file, but the 200-byte simulator section
// is externalised into four 64-byte-keyed chunks (the other sections are
// below the chunk threshold and stay inline). The chunk store side of
// the fixture is regenerated by re-encoding — cas_test locks the
// packfile bytes separately.

const char* const kFixtureV3 =
    "51434b5003000000030000000000000002000000000000002800000000000000"
    "0903000000000000040000000100000020000000000000002000000000000000"
    "ae98b83401080f161d242b323940474e555c636a71787f868d949ba2a9b0b7be"
    "c5ccd3da020001003000000000000000060000000000000076585d228caa8c55"
    "8c000300020118000000000000001a0000000000000083f17c091805080b0e11"
    "14171a1d202326292c2f3235383b3e4144474a0006000204c800000000000000"
    "3d0000000000000001605e5f0004000000400000000000000040000000000000"
    "002185504d40000000000000009c4e2d22400000000000000075e43063080000"
    "00000000007c8050db49577d5c98220281504b4351";

TEST(GoldenFixture, V3ExternFileStillDecodesByteExact) {
  // Rebuild the chunk store by encoding, then decode the committed hex
  // against it: both the file bytes and the key derivation are locked.
  MapChunkStore store;
  EncodeOptions options;
  options.chunk_bytes = 64;
  options.sink = &store;
  EXPECT_EQ(encode_checkpoint(golden_file(true), options),
            from_hex(kFixtureV3))
      << "v3 encoder output drifted — update the fixture only for an "
         "intentional, documented format change";
  const CheckpointFile back = decode_checkpoint(
      from_hex(kFixtureV3), DecodeOptions{.source = &store});
  expect_equal_files(golden_file(true), back);
}

/// Runs `read`; a CorruptCheckpoint is an accepted answer, any other
/// exception a failure. Returns whether `read` returned.
template <typename Read>
bool returns_or_rejects(const Read& read, const std::string& what) {
  try {
    read();
    return true;
  } catch (const CorruptCheckpoint&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw other than CorruptCheckpoint: "
                  << e.what();
  }
  return false;
}

/// Every container reader on one damaged file. The three strict ones
/// must reject it with CorruptCheckpoint. The two ranged ones skip the
/// footer CRC64, so they may answer, but may throw nothing else, and the
/// ranged refs may only omit references (a sub-multiset of `intact`,
/// sorted), never invent them.
void expect_readers_reject(const Bytes& damaged, const DecodeOptions& decode,
                           const std::vector<ChunkKey>& intact,
                           const std::string& what) {
  EXPECT_THROW(decode_checkpoint(damaged, decode), CorruptCheckpoint) << what;
  EXPECT_THROW(decode_checkpoint_header(damaged), CorruptCheckpoint) << what;
  EXPECT_THROW(list_chunk_refs(ByteSpan(damaged)), CorruptCheckpoint) << what;
  io::MemEnv env;
  env.write_file_atomic("f", damaged);
  returns_or_rejects([&] { (void)read_checkpoint_index(env, "f"); },
                     what + " read_checkpoint_index");
  std::vector<ChunkKey> refs;
  if (returns_or_rejects([&] { refs = list_chunk_refs(env, "f"); },
                         what + " ranged list_chunk_refs")) {
    std::ranges::sort(refs);
    EXPECT_TRUE(std::ranges::includes(intact, refs))
        << what << ": ranged list_chunk_refs invented a reference";
  }
}

TEST(GoldenFixture, CorruptingAnyV3FixtureByteIsDetected) {
  MapChunkStore store;
  EncodeOptions options;
  options.chunk_bytes = 64;
  options.sink = &store;
  (void)encode_checkpoint(golden_file(true), options);
  const Bytes blob = from_hex(kFixtureV3);
  const DecodeOptions decode{.source = &store};
  std::vector<ChunkKey> intact = list_chunk_refs(ByteSpan(blob));
  ASSERT_EQ(intact.size(), 4u);
  std::ranges::sort(intact);
  for (std::size_t bit = 0; bit < blob.size() * 8; ++bit) {
    Bytes damaged = blob;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_readers_reject(damaged, decode, intact,
                          "bit " + std::to_string(bit) + " flipped");
  }
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    expect_readers_reject(Bytes(blob.begin(), blob.begin() + cut), decode,
                          intact, "cut to " + std::to_string(cut) + " B");
  }
  // Too short for a header, yet sealed by a footer whose CRC64 verifies:
  // the frame's size check, not a bounds check deep in a reader, must
  // reject it.
  for (std::size_t head = 4; head < 44; ++head) {
    Bytes sealed(blob.begin(), blob.begin() + head);
    util::put_le<std::uint64_t>(sealed, util::crc64(sealed));
    sealed.insert(sealed.end(), {'P', 'K', 'C', 'Q'});
    expect_readers_reject(sealed, decode, intact,
                          std::to_string(sealed.size()) + " B sealed file");
  }
}

// A v3 file written before extern chunks were cut on the element grid:
// its params section (20 doubles, 168 payload bytes) was cut every 64
// bytes from payload byte 0, into chunks of 64, 64 and 40 bytes. Readers
// take each chunk's length from the key table, so such files must keep
// decoding although today's encoder cuts 72, 64 and 32.

const char* const kFixtureV3HeadCut =
    "51434b5003000000050000000000000000000000000000000900000000000000"
    "92100000000000000100000001000004a8000000000000003100000000000000"
    "77a417ec000300000040000000000000004000000000000000004680b9400000"
    "00000000007dc640382800000000000000bd2b9462633712af2cdce8bb504b43"
    "51";

CheckpointFile head_cut_file() {
  std::vector<double> params(20);
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i] = 0.25 * static_cast<double>(i) - 2.0;
  }
  CheckpointFile f;
  f.checkpoint_id = 5;
  f.step = 9;
  f.time_us = 4242;
  f.sections.push_back(Section{.kind = SectionKind::kParams,
                               .codec = codec::CodecId::kRaw,
                               .flags = 0,
                               .payload = vector_payload(params)});
  return f;
}

TEST(GoldenFixture, V3FileCutFromPayloadByteZeroStillDecodes) {
  const CheckpointFile f = head_cut_file();
  const ByteSpan payload = f.sections[0].payload;
  MapChunkStore store;
  for (std::size_t begin = 0; begin < payload.size(); begin += 64) {
    const ByteSpan piece = payload.subspan(
        begin, std::min<std::size_t>(64, payload.size() - begin));
    store.put(chunk_key(piece), codec::CodecId::kRaw, piece);
  }
  const Bytes blob = from_hex(kFixtureV3HeadCut);
  EXPECT_EQ(chunk_lengths(blob), (std::vector<std::uint64_t>{64, 64, 40}));
  expect_equal_files(f,
                     decode_checkpoint(blob, DecodeOptions{.source = &store}));
  // The grid cut of the same payload needs other chunks.
  MapChunkStore fresh;
  EXPECT_EQ(chunk_lengths(encode_checkpoint(f, extern_options(fresh, 64))),
            (std::vector<std::uint64_t>{72, 64, 32}));
}

TEST(GoldenFixture, CorruptingAnyFixtureByteIsDetected) {
  // The container must detect a flip of any single byte of the golden
  // files (header, payload, CRC or footer) — full-file sweep.
  for (const char* hex : {kFixtureV1, kFixtureV2}) {
    const Bytes blob = from_hex(hex);
    for (std::size_t i = 0; i < blob.size(); ++i) {
      Bytes damaged = blob;
      damaged[i] ^= 0x01;
      EXPECT_THROW(decode_checkpoint(damaged), CorruptCheckpoint)
          << "byte " << i << " flip went undetected";
    }
  }
}

TEST(Salvage, EveryTruncationKeepsTheHeaderAndLeadingSections) {
  // Extern sections first and third, inline ones between and after.
  CheckpointFile f = golden_file(false);
  f.sections.insert(f.sections.begin(),
                    Section{.kind = SectionKind::kSimulator,
                            .codec = codec::CodecId::kLz,
                            .flags = 0,
                            .payload = byte_pattern(200, 11, 2)});
  f.sections.insert(f.sections.begin() + 2,
                    Section{.kind = SectionKind::kLossHistory,
                            .codec = codec::CodecId::kRaw,
                            .flags = 0,
                            .payload = byte_pattern(150, 5, 9)});
  MapChunkStore store;
  const Bytes blob = encode_checkpoint(f, extern_options(store, 64));
  ASSERT_EQ(list_chunk_refs(ByteSpan(blob)).size(), 7u);
  const DecodeOptions decode{.source = &store};
  const CheckpointFile intact = decode_checkpoint(blob, decode);
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    const auto result =
        salvage_checkpoint(ByteSpan(blob).first(cut), decode);
    EXPECT_FALSE(result.fully_intact) << "cut " << cut;
    if (cut < 44) {  // magic + fixed header
      EXPECT_FALSE(result.file.has_value()) << "cut " << cut;
      continue;
    }
    ASSERT_TRUE(result.file.has_value()) << "cut " << cut;
    EXPECT_EQ(result.file->checkpoint_id, intact.checkpoint_id);
    EXPECT_EQ(result.file->parent_id, intact.parent_id);
    EXPECT_EQ(result.file->step, intact.step);
    EXPECT_EQ(result.file->time_us, intact.time_us);
    const auto& got = result.file->sections;
    ASSERT_LE(got.size(), intact.sections.size()) << "cut " << cut;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].kind, intact.sections[i].kind) << "cut " << cut;
      EXPECT_EQ(got[i].flags, intact.sections[i].flags) << "cut " << cut;
      EXPECT_EQ(got[i].payload, intact.sections[i].payload) << "cut " << cut;
    }
  }
}

}  // namespace
}  // namespace qnn::ckpt
