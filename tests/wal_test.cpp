// Tests for the WAL-style delta journal (ckpt/wal.hpp): file naming,
// frame round trips, torn-tail truncation at every byte, group commit,
// idempotent redo-only replay, Checkpointer integration (logging,
// budget-driven compaction, rotation), and stale-log reaping.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/cas.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/store.hpp"
#include "ckpt/wal.hpp"
#include "io/env.hpp"
#include "io/mem_env.hpp"
#include "qnn/ansatz.hpp"
#include "util/bytes.hpp"
#include "util/crc.hpp"
#include "util/strings.hpp"
#include "util/varint.hpp"

namespace qnn::ckpt {
namespace {

// ---------- helpers: a real training state ----------

qnn::TrainingState make_state(std::uint64_t step, std::uint64_t seed = 7) {
  qnn::TrainingState s;
  s.step = step;
  util::Rng rng(seed + step);
  s.params.resize(24);
  for (double& p : s.params) {
    p = rng.uniform(-3.0, 3.0);
  }
  s.optimizer_name = "adam";
  s.optimizer_state.resize(400);
  for (auto& b : s.optimizer_state) {
    b = static_cast<std::uint8_t>(rng());
  }
  s.rng_state = rng.serialize();
  s.loss_history.resize(step, 0.5);
  s.epoch = step / 10;
  s.cursor = step % 10;
  s.permutation = {0, 1, 2, 3};
  s.workload_tag = "vqe";
  return s;
}

/// The base checkpoint's resolved raw payloads, as recovery hands them
/// to replay_wal.
SectionPayloads raw_sections(const qnn::TrainingState& state,
                             bool include_simulator = false) {
  SectionPayloads out;
  for (Section& s : state_to_sections(state, include_simulator,
                                      codec::CodecId::kRaw)) {
    out[s.kind] = SectionPayload(s.kind, std::move(s.payload));
  }
  return out;
}

qnn::TrainingState state_of(SectionPayloads sections) {
  return load_state(std::move(sections));
}

/// A copy of one payload's bytes.
util::Bytes bytes_of(const SectionPayload& payload) {
  const util::ByteSpan bytes = payload.bytes();
  return {bytes.begin(), bytes.end()};
}

std::vector<std::string> wal_files(io::Env& env, const std::string& dir) {
  std::vector<std::string> out;
  for (const std::string& name : env.list_dir(dir)) {
    if (parse_wal_file_name(name)) {
      out.push_back(name);
    }
  }
  return out;
}

/// The codec a default policy encodes journal sections with.
const codec::CodecId kCodec = CheckpointPolicy{}.codec;

/// The fields of one version-2 record section, read straight off disk.
struct SectionHeader {
  SectionKind kind = SectionKind::kMeta;
  std::uint8_t flags = 0;
  codec::CodecId codec = codec::CodecId::kRaw;
  std::uint64_t base_len = 0;
  std::uint64_t raw_len = 0;
  std::uint64_t enc_len = 0;
};

/// Walks a fully-framed version-2 journal (26-byte header, then
/// `u64 len, u32 crc, payload` frames) and returns every record's
/// section headers, so tests can check the layout wal.hpp documents.
std::vector<std::vector<SectionHeader>> section_headers(
    io::Env& env, const std::string& path) {
  const auto data = env.read_file(path);
  EXPECT_TRUE(data.has_value()) << path;
  std::vector<std::vector<SectionHeader>> out;
  if (!data) {
    return out;
  }
  const util::ByteSpan bytes(*data);
  std::size_t off = 4;
  EXPECT_EQ(util::get_le<std::uint16_t>(bytes, off), 2u) << "version";
  off = 26;
  while (off < bytes.size()) {
    const auto len = util::get_le<std::uint64_t>(bytes, off);
    off += 4;  // frame crc
    const std::size_t end = off + len;
    off += 8;  // step
    const auto n = util::get_le<std::uint32_t>(bytes, off);
    std::vector<SectionHeader> record;
    for (std::uint32_t i = 0; i < n; ++i) {
      SectionHeader h;
      h.kind =
          static_cast<SectionKind>(util::get_le<std::uint16_t>(bytes, off));
      h.flags = util::get_le<std::uint8_t>(bytes, off);
      h.codec =
          static_cast<codec::CodecId>(util::get_le<std::uint8_t>(bytes, off));
      h.base_len = util::get_le<std::uint64_t>(bytes, off);
      h.raw_len = util::get_le<std::uint64_t>(bytes, off);
      h.enc_len = util::get_le<std::uint64_t>(bytes, off);
      off += h.enc_len;
      record.push_back(h);
    }
    EXPECT_EQ(off, end) << "record " << out.size();
    out.push_back(std::move(record));
  }
  return out;
}

const SectionHeader& find_section(const std::vector<SectionHeader>& record,
                                  SectionKind kind) {
  for (const SectionHeader& h : record) {
    if (h.kind == kind) {
      return h;
    }
  }
  throw std::runtime_error("record has no such section");
}

/// Appends one CRC-valid frame around `payload`, the way the writer does.
void append_frame(util::Bytes& file, util::ByteSpan payload) {
  util::Bytes prefix;
  util::put_le<std::uint64_t>(prefix, payload.size());
  util::put_le<std::uint32_t>(prefix,
                              util::crc32c(payload, util::crc32c(prefix)));
  file.insert(file.end(), prefix.begin(), prefix.end());
  file.insert(file.end(), payload.begin(), payload.end());
}

/// Appends one version-2 record section with a raw-coded body.
void put_section(util::Bytes& payload, SectionKind kind, std::uint8_t flags,
                 std::uint64_t base_len, util::ByteSpan body) {
  util::put_le<std::uint16_t>(payload, static_cast<std::uint16_t>(kind));
  util::put_le<std::uint8_t>(payload, flags);
  util::put_le<std::uint8_t>(payload,
                             static_cast<std::uint8_t>(codec::CodecId::kRaw));
  util::put_le<std::uint64_t>(payload, base_len);
  util::put_le<std::uint64_t>(payload, body.size());
  util::put_bytes(payload, body);
}

/// Forwards to `base`; while `fail_next_plain_append` is set, the next
/// append on a plain (journal) stream clears it and throws before
/// writing a byte.
class FailingAppendEnv final : public io::ForwardingEnv {
 public:
  using io::ForwardingEnv::ForwardingEnv;

  bool fail_next_plain_append = false;

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override {
    auto file = base_.new_writable(path, mode);
    if (mode != io::WriteMode::kPlain) {
      return file;
    }
    return std::make_unique<File>(std::move(file), fail_next_plain_append);
  }

 private:
  class File final : public io::WritableFile {
   public:
    File(std::unique_ptr<io::WritableFile> inner, bool& fail)
        : inner_(std::move(inner)), fail_(fail) {}
    void append(util::ByteSpan data) override {
      if (fail_) {
        fail_ = false;
        throw std::runtime_error("injected append failure");
      }
      inner_->append(data);
    }
    void sync() override { inner_->sync(); }
    void close() override { inner_->close(); }

   private:
    std::unique_ptr<io::WritableFile> inner_;
    bool& fail_;
  };
};

util::Bytes from_hex(const std::string& hex) {
  util::Bytes out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

// ---------- file naming ----------

TEST(WalFile, NameRoundTrip) {
  EXPECT_EQ(wal_file_name(42), "wal-0000000042.qwal");
  EXPECT_EQ(parse_wal_file_name("wal-0000000042.qwal").value(), 42u);
  EXPECT_FALSE(parse_wal_file_name("wal-42.qwal").has_value());
  EXPECT_FALSE(parse_wal_file_name("wal-00000000xx.qwal").has_value());
  EXPECT_FALSE(parse_wal_file_name("ckpt-0000000042.qckp").has_value());
  EXPECT_FALSE(parse_wal_file_name("wal-0000000042.qckp").has_value());
  // The checkpoint and packfile names share the one numbered-name codec.
  EXPECT_EQ(checkpoint_file_name(42), "ckpt-0000000042.qckp");
  EXPECT_EQ(parse_checkpoint_file_name("ckpt-0000000042.qckp").value(), 42u);
  EXPECT_FALSE(parse_checkpoint_file_name("ckpt-42.qckp").has_value());
  EXPECT_FALSE(parse_checkpoint_file_name("ckpt-00000000xx.qckp").has_value());
  EXPECT_FALSE(parse_checkpoint_file_name("ckpt-0000000042.qpak").has_value());
  EXPECT_EQ(pack_file_name(42), "pack-0000000042.qpak");
  EXPECT_EQ(parse_pack_file_name("pack-0000000042.qpak").value(), 42u);
  EXPECT_FALSE(parse_pack_file_name("pack-42.qpak").has_value());
  EXPECT_FALSE(parse_pack_file_name("pack-00000000xx.qpak").has_value());
  EXPECT_FALSE(parse_pack_file_name("pack-0000000042.qckp").has_value());
}

// ---------- writer / scan / replay round trip ----------

TEST(Wal, WriteScanReplayRoundTrip) {
  io::MemEnv env;
  const auto base = make_state(10);
  WalWriter w(env, "cp", 1, WalPolicy{.enable = true}, kCodec, base,
              /*include_simulator=*/false);
  for (std::uint64_t step = 11; step <= 13; ++step) {
    w.log_step(make_state(step));
  }
  w.close();

  const auto scan = scan_wal(env, "cp", 1);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->epoch, 1u);
  EXPECT_EQ(scan->base_step, 10u);
  EXPECT_EQ(scan->records, 3u);
  EXPECT_EQ(scan->last_step, 13u);
  EXPECT_EQ(scan->torn_bytes, 0u);

  auto sections = raw_sections(base);
  const auto replay = replay_wal(env, "cp", 1, sections);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records_applied, 3u);
  EXPECT_EQ(replay->step, 13u);
  EXPECT_EQ(replay->torn_bytes, 0u);
  EXPECT_EQ(state_of(sections), make_state(13));
}

TEST(Wal, ScanRejectsMissingTornOrMislabeledHeaders) {
  io::MemEnv env;
  EXPECT_FALSE(scan_wal(env, "cp", 1).has_value());  // missing

  const auto base = make_state(5);
  WalWriter w(env, "cp", 1, WalPolicy{}, kCodec, base, false);
  w.log_step(make_state(6));
  w.close();

  // A log whose header claims a different epoch than its file name must
  // never masquerade as that epoch's journal.
  const auto data = env.read_file("cp/" + wal_file_name(1));
  ASSERT_TRUE(data.has_value());
  env.write_file_atomic("cp/" + wal_file_name(2), util::ByteSpan{*data});
  EXPECT_FALSE(scan_wal(env, "cp", 2).has_value());

  // A header torn mid-way is unusable.
  ASSERT_TRUE(env.truncate("cp/" + wal_file_name(1), 10));
  EXPECT_FALSE(scan_wal(env, "cp", 1).has_value());
}

// ---------- torn tails ----------

TEST(Wal, TruncationAtEveryByteReplaysLongestValidPrefix) {
  io::MemEnv env;
  const auto base = make_state(20);
  // Frame boundaries, captured as the writer grows the log.
  std::vector<std::uint64_t> marks;
  WalWriter w(env, "cp", 3, WalPolicy{}, kCodec, base, false);
  marks.push_back(w.bytes_logged());  // header
  for (std::uint64_t step = 21; step <= 23; ++step) {
    w.log_step(make_state(step));
    marks.push_back(w.bytes_logged());
  }
  w.close();

  const auto full = env.read_file("cp/" + wal_file_name(3));
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(full->size(), marks.back());

  for (std::uint64_t len = 0; len <= full->size(); ++len) {
    env.write_file_atomic("cp/" + wal_file_name(3),
                          util::ByteSpan{full->data(), len});
    std::uint64_t expect_records = 0;
    for (std::size_t i = 1; i < marks.size(); ++i) {
      expect_records += marks[i] <= len ? 1 : 0;
    }
    const auto scan = scan_wal(env, "cp", 3);
    if (len < marks.front()) {
      EXPECT_FALSE(scan.has_value()) << "torn header at len " << len;
      continue;
    }
    ASSERT_TRUE(scan.has_value()) << "len " << len;
    EXPECT_EQ(scan->records, expect_records) << "len " << len;
    EXPECT_EQ(scan->valid_bytes, marks[expect_records]) << "len " << len;
    EXPECT_EQ(scan->torn_bytes, len - marks[expect_records]) << "len " << len;

    auto sections = raw_sections(base);
    const auto replay = replay_wal(env, "cp", 3, sections);
    if (expect_records == 0) {
      EXPECT_FALSE(replay.has_value()) << "len " << len;
      EXPECT_EQ(state_of(sections), base) << "len " << len;
    } else {
      ASSERT_TRUE(replay.has_value()) << "len " << len;
      EXPECT_EQ(replay->records_applied, expect_records);
      EXPECT_EQ(state_of(sections), make_state(20 + expect_records))
          << "len " << len;
    }
  }
}

TEST(Wal, CorruptFrameStopsReplayAtLastGoodRecord) {
  io::MemEnv env;
  const auto base = make_state(1);
  std::vector<std::uint64_t> marks;
  WalWriter w(env, "cp", 1, WalPolicy{}, kCodec, base, false);
  marks.push_back(w.bytes_logged());
  for (std::uint64_t step = 2; step <= 4; ++step) {
    w.log_step(make_state(step));
    marks.push_back(w.bytes_logged());
  }
  w.close();

  // Flip a bit inside the second record's payload: replay keeps record
  // one, ignores everything from the damage on.
  ASSERT_TRUE(env.flip_bit("cp/" + wal_file_name(1), (marks[1] + 20) * 8));
  auto sections = raw_sections(base);
  const auto replay = replay_wal(env, "cp", 1, sections);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_EQ(replay->step, 2u);
  EXPECT_EQ(state_of(sections), make_state(2));

  // Damage in the first record leaves nothing to replay; the caller's
  // sections must come back untouched.
  ASSERT_TRUE(env.flip_bit("cp/" + wal_file_name(1), (marks[0] + 20) * 8));
  auto untouched = raw_sections(base);
  EXPECT_FALSE(replay_wal(env, "cp", 1, untouched).has_value());
  EXPECT_EQ(untouched, raw_sections(base));
}

TEST(Wal, InapplicableRecordStopsReplayWithoutPartialApply) {
  io::MemEnv env;
  const auto base = make_state(30);
  WalWriter w(env, "cp", 9, WalPolicy{}, kCodec, base, false);
  w.log_step(make_state(31));
  w.close();

  // Replay against a base whose params payload has a different size than
  // the record's base_len: the delta no longer applies, and the atomicity
  // rule says no section of the record may land.
  auto mismatched = raw_sections(base);
  ASSERT_FALSE(mismatched[SectionKind::kParams].empty());
  util::Bytes params = bytes_of(mismatched[SectionKind::kParams]);
  params.resize(params.size() - 8);
  mismatched[SectionKind::kParams] =
      SectionPayload(SectionKind::kParams, std::move(params));
  const auto before = mismatched;
  EXPECT_FALSE(replay_wal(env, "cp", 9, mismatched).has_value());
  EXPECT_EQ(mismatched, before);
}

/// An LZ token stream: `lits` as one literal run, then, when `code` is
/// not 0, a match of code + 3 bytes at `dist`, then the end marker.
util::Bytes lz_tokens(const util::Bytes& lits, std::uint64_t code,
                      std::uint64_t dist) {
  util::Bytes enc;
  util::put_varint(enc, lits.size());
  enc.insert(enc.end(), lits.begin(), lits.end());
  if (code != 0) {
    util::put_varint(enc, code);
    util::put_varint(enc, dist);
    util::put_varint(enc, 0);
  }
  util::put_varint(enc, 0);
  return enc;
}

TEST(Wal, UndecodableSectionStopsReplayWithoutPartialApply) {
  // Each undecodable body: an LZ stream that frames fine but fails to
  // decode to its raw_len.
  struct Undecodable {
    const char* name;
    util::Bytes encoded;
    std::uint64_t raw_len;
  };
  util::Bytes noise(400 << 10);
  util::Rng rng(5);
  for (auto& b : noise) {
    b = static_cast<std::uint8_t>(rng());
  }
  util::Bytes truncated;
  util::put_varint(truncated, 10);
  truncated.push_back('x');  // 9 literals missing
  const Undecodable bodies[] = {
      // A match reaching before the start of the output.
      {"too_far", util::Bytes{0x00, 0x01, 0x05}, 16},
      {"truncated_literals", truncated, 10},
      {"overlong_match", lz_tokens({'x'}, 8, 1), 5},
      {"short_output", lz_tokens({'x'}, 1, 1), 16},
      // More than 64 KiB, so decoding flushes its window before the
      // match, which reaches 64 KiB + 1 back: past the window.
      {"past_window", lz_tokens(noise, 1, (1 << 16) + 1), noise.size() + 4},
  };
  const auto first = raw_sections(make_state(31));
  const auto next = raw_sections(make_state(32));
  for (const bool delta : {false, true}) {
    for (const Undecodable& bad : bodies) {
      SCOPED_TRACE(std::string(bad.name) + (delta ? " after a delta" : ""));
      io::MemEnv env;
      const auto base = make_state(30);
      WalWriter w(env, "cp", 4, WalPolicy{}, kCodec, base, false);
      w.log_step(make_state(31));
      w.close();

      // A CRC-valid frame whose first section is intact and whose second
      // is undecodable: framing accepts it, decoding does not. The
      // intact params body is step 32's payload, full or as a delta
      // against step 31's.
      util::Bytes params = bytes_of(next.at(SectionKind::kParams));
      const util::Bytes params_base = bytes_of(first.at(SectionKind::kParams));
      if (delta) {
        ASSERT_EQ(params.size(), params_base.size());
        for (std::size_t i = 0; i < params.size(); ++i) {
          params[i] ^= params_base[i];
        }
      }
      util::Bytes payload;
      util::put_le<std::uint64_t>(payload, 32);
      util::put_le<std::uint32_t>(payload, 2);
      put_section(payload, SectionKind::kParams,
                  delta ? kSectionFlagDelta : std::uint8_t{0},
                  delta ? params_base.size() : 0, params);
      util::put_le<std::uint16_t>(
          payload, static_cast<std::uint16_t>(SectionKind::kRng));
      util::put_le<std::uint8_t>(payload, 0);
      util::put_le<std::uint8_t>(
          payload, static_cast<std::uint8_t>(codec::CodecId::kLz));
      util::put_le<std::uint64_t>(payload, 0);
      util::put_le<std::uint64_t>(payload, bad.raw_len);
      util::put_bytes(payload, bad.encoded);
      auto file = env.read_file("cp/" + wal_file_name(4));
      ASSERT_TRUE(file.has_value());
      append_frame(*file, payload);
      env.write_file_atomic("cp/" + wal_file_name(4), util::ByteSpan{*file});

      const auto scan = scan_wal(env, "cp", 4);  // frame-level: both records
      ASSERT_TRUE(scan.has_value());
      EXPECT_EQ(scan->records, 2u);
      auto sections = raw_sections(base);
      const auto replay = replay_wal(env, "cp", 4, sections);
      ASSERT_TRUE(replay.has_value());
      EXPECT_EQ(replay->records_applied, 1u);
      EXPECT_EQ(sections, first);
      EXPECT_EQ(state_of(sections), make_state(31))
          << "the undecodable record's intact params section must not land";
    }
  }
}

TEST(Wal, InapplicableSecondRecordLeavesTheFirstRecordsState) {
  io::MemEnv env;
  const auto base = make_state(30);
  WalWriter w(env, "cp", 6, WalPolicy{}, kCodec, base, false);
  w.log_step(make_state(31));
  w.close();

  // Record two: an applicable optimizer delta against step 31's state,
  // then a params delta whose base_len matches no state. Replay works on
  // the caller's map in place, so the decoded optimizer delta must not
  // land either: the map stays at exactly record one's state.
  const auto first = raw_sections(make_state(31));
  const auto next = raw_sections(make_state(32));
  const util::Bytes opt = bytes_of(first.at(SectionKind::kOptimizer));
  util::Bytes opt_delta = bytes_of(next.at(SectionKind::kOptimizer));
  ASSERT_EQ(opt_delta.size(), opt.size());
  for (std::size_t i = 0; i < opt.size(); ++i) {
    opt_delta[i] ^= opt[i];
  }
  const util::Bytes params = bytes_of(next.at(SectionKind::kParams));
  util::Bytes payload;
  util::put_le<std::uint64_t>(payload, 32);
  util::put_le<std::uint32_t>(payload, 2);
  put_section(payload, SectionKind::kOptimizer, kSectionFlagDelta, opt.size(),
              opt_delta);
  put_section(payload, SectionKind::kParams, kSectionFlagDelta,
              params.size() + 8, params);
  auto file = env.read_file("cp/" + wal_file_name(6));
  ASSERT_TRUE(file.has_value());
  append_frame(*file, payload);
  env.write_file_atomic("cp/" + wal_file_name(6), util::ByteSpan{*file});

  auto sections = raw_sections(base);
  const auto replay = replay_wal(env, "cp", 6, sections);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_EQ(replay->step, 31u);
  EXPECT_EQ(sections, first);
}

TEST(Wal, RecordThatRepeatsASectionKindIsATornTail) {
  io::MemEnv env;
  const auto base = make_state(30);
  WalWriter w(env, "cp", 8, WalPolicy{}, kCodec, base, false);
  w.log_step(make_state(31));
  w.close();

  // Record two names kParams twice, each a delta to step 32's params
  // against record one's. Applied in turn, the two would cancel; no
  // writer frames such a record, so it ends the valid prefix.
  const util::Bytes params =
      bytes_of(raw_sections(make_state(31)).at(SectionKind::kParams));
  util::Bytes delta =
      bytes_of(raw_sections(make_state(32)).at(SectionKind::kParams));
  ASSERT_EQ(delta.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    delta[i] ^= params[i];
  }
  util::Bytes payload;
  util::put_le<std::uint64_t>(payload, 32);
  util::put_le<std::uint32_t>(payload, 2);
  put_section(payload, SectionKind::kParams, kSectionFlagDelta, params.size(),
              delta);
  put_section(payload, SectionKind::kParams, kSectionFlagDelta, params.size(),
              delta);
  auto file = env.read_file("cp/" + wal_file_name(8));
  ASSERT_TRUE(file.has_value());
  append_frame(*file, payload);
  env.write_file_atomic("cp/" + wal_file_name(8), util::ByteSpan{*file});

  const auto scan = scan_wal(env, "cp", 8);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->records, 1u);
  EXPECT_GT(scan->torn_bytes, 0u);
  auto sections = raw_sections(base);
  const auto replay = replay_wal(env, "cp", 8, sections);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_EQ(state_of(sections), make_state(31));
}

// ---------- format: codec, deltas across size changes, version 1 ----------

/// A small state whose journal fits a hex fixture.
qnn::TrainingState tiny_state(std::uint64_t step) {
  qnn::TrainingState s;
  s.step = step;
  s.params = {0.5 * static_cast<double>(step), -1.25};
  s.optimizer_name = "sgd";
  s.rng_state = {1, 2, 3, 4};
  s.loss_history.assign(step, 0.25);
  s.cursor = step;
  s.workload_tag = "t";
  return s;
}

/// wal-0000000001.qwal as the version-1 writer left it: base tiny_state(2),
/// records for steps 3 and 4 (params as equal-size deltas, the growing
/// loss history raw).
const char* const kJournalV1 =
    "5157414c010001000000000000000200000000000000c5961c01ca0000000000"
    "00008c74c2f60300000000000000060000000000013800000000000000000000"
    "0000000000000000000000000000000000000000000100000000000000000000"
    "0000000000010000000000000000000000000000000100011800000000000000"
    "0000000000000000000000000000080000000000000000000200010000000000"
    "0000000300010400000000000000000000000400010800000000000000000000"
    "000000000005000020000000000000000300000000000000000000000000d03f"
    "000000000000d03f000000000000d03fd20000000000000085a9f42904000000"
    "0000000006000000000001380000000000000000000000000000000000000000"
    "0000000000000000000000070000000000000000000000000000000700000000"
    "0000000000000000000000010001180000000000000000000000000000000000"
    "00000000f87f0000000000000000020001000000000000000003000104000000"
    "0000000000000000040001080000000000000000000000000000000500002800"
    "0000000000000400000000000000000000000000d03f000000000000d03f0000"
    "00000000d03f000000000000d03f";

TEST(Wal, VersionOneJournalStillReplays) {
  io::MemEnv env;
  const util::Bytes blob = from_hex(kJournalV1);
  env.write_file_atomic("cp/" + wal_file_name(1), util::ByteSpan{blob});

  const auto scan = scan_wal(env, "cp", 1);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->base_step, 2u);
  EXPECT_EQ(scan->records, 2u);
  EXPECT_EQ(scan->torn_bytes, 0u);
  auto sections = raw_sections(tiny_state(2));
  const auto replay = replay_wal(env, "cp", 1, sections);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records_applied, 2u);
  EXPECT_EQ(state_of(sections), tiny_state(4));
}

TEST(Wal, DeltasAcrossSizeChangesRoundTrip) {
  // The loss history grows by one entry per step, is then cleared (the
  // rotation a long-running trainer does) and grows again; every record
  // deltas it against the previous record's payload regardless.
  io::MemEnv env;
  const auto base = make_state(10);
  std::vector<qnn::TrainingState> logged;
  for (std::uint64_t step = 11; step <= 13; ++step) {
    logged.push_back(make_state(step));
  }
  logged.push_back(make_state(14));
  logged.back().loss_history.clear();
  logged.push_back(make_state(15));
  logged.back().loss_history.assign(1, 0.75);

  std::vector<std::uint64_t> marks;
  WalWriter w(env, "cp", 3, WalPolicy{}, kCodec, base, false);
  for (const auto& state : logged) {
    w.log_step(state);
    marks.push_back(w.bytes_logged());
  }
  w.close();

  const auto records = section_headers(env, "cp/" + wal_file_name(3));
  ASSERT_EQ(records.size(), logged.size());
  std::uint64_t base_len = raw_sections(base)[SectionKind::kLossHistory].size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SectionHeader& h = find_section(records[i], SectionKind::kLossHistory);
    EXPECT_NE(h.flags & kSectionFlagDelta, 0) << "record " << i;
    EXPECT_EQ(h.base_len, base_len) << "record " << i;
    base_len = h.raw_len;
  }

  // Every prefix of the journal replays to the state logged last in it.
  const auto full = env.read_file("cp/" + wal_file_name(3));
  ASSERT_TRUE(full.has_value());
  for (std::size_t i = 0; i < logged.size(); ++i) {
    env.write_file_atomic("cp/" + wal_file_name(3),
                          util::ByteSpan{full->data(), marks[i]});
    auto sections = raw_sections(base);
    const auto replay = replay_wal(env, "cp", 3, sections);
    ASSERT_TRUE(replay.has_value()) << "prefix " << i;
    EXPECT_EQ(replay->records_applied, i + 1);
    EXPECT_EQ(state_of(sections), logged[i]) << "prefix " << i;
  }
}

TEST(Wal, IncompressibleSectionIsStoredRaw) {
  // make_state redraws its optimizer bytes every step, so their delta is
  // noise the codec cannot shrink; the one-entry loss-history growth
  // deltas to nearly all zeros and must be stored encoded.
  io::MemEnv env;
  WalWriter w(env, "cp", 1, WalPolicy{}, kCodec, make_state(10), false);
  w.log_step(make_state(11));
  w.close();
  const auto records = section_headers(env, "cp/" + wal_file_name(1));
  ASSERT_EQ(records.size(), 1u);
  const SectionHeader& opt = find_section(records[0], SectionKind::kOptimizer);
  EXPECT_EQ(opt.codec, codec::CodecId::kRaw);
  EXPECT_EQ(opt.enc_len, opt.raw_len);
  const SectionHeader& hist =
      find_section(records[0], SectionKind::kLossHistory);
  EXPECT_EQ(hist.codec, kCodec);
  EXPECT_LT(hist.enc_len, hist.raw_len);
}

TEST(Wal, SparseDeltaOfLargeStateIsUnderOneSixteenthOfRaw) {
  // An 8 MiB parameter vector of which one 64 KiB region moved.
  io::MemEnv env;
  auto base = make_state(1);
  util::Rng rng(99);
  base.params.resize(std::size_t{1} << 20);
  for (double& p : base.params) {
    p = rng.uniform(-1.0, 1.0);
  }
  auto next = base;
  next.step = 2;
  for (std::size_t i = 0; i < 8192; ++i) {
    next.params[(std::size_t{1} << 19) + i] += 1.0;
  }
  WalWriter w(env, "cp", 1, WalPolicy{}, kCodec, base, false);
  const std::uint64_t before = w.bytes_logged();
  w.log_step(next);
  w.close();
  const std::uint64_t record = w.bytes_logged() - before;
  std::uint64_t raw = 0;
  for (const auto& [kind, payload] : raw_sections(next)) {
    raw += payload.size();
  }
  EXPECT_LT(record * 16, raw) << record << " B stored for " << raw << " B";

  auto sections = raw_sections(base);
  ASSERT_TRUE(replay_wal(env, "cp", 1, sections).has_value());
  EXPECT_EQ(state_of(sections), next);
}

// ---------- replay is idempotent ----------

TEST(Wal, ReplayIsIdempotentAcrossRepeatedRecoveries) {
  io::MemEnv env;
  const auto base = make_state(40);
  WalWriter w(env, "cp", 2, WalPolicy{}, kCodec, base, false);
  for (std::uint64_t step = 41; step <= 44; ++step) {
    w.log_step(make_state(step));
  }
  w.close();

  // Two independent replays from fresh base copies — as two recovery
  // attempts after a crash mid-recovery would run — land on identical
  // state: replay is a pure function of (base, valid frame prefix).
  auto first = raw_sections(base);
  auto second = raw_sections(base);
  ASSERT_TRUE(replay_wal(env, "cp", 2, first).has_value());
  ASSERT_TRUE(replay_wal(env, "cp", 2, second).has_value());
  EXPECT_EQ(first, second);
  EXPECT_EQ(state_of(first), make_state(44));
}

// ---------- group commit and budget ----------

TEST(Wal, GroupCommitSyncsEveryGRecords) {
  io::MemEnv env;
  const auto base = make_state(1);
  WalPolicy policy;
  policy.group_commit_steps = 3;
  WalWriter w(env, "cp", 1, policy, kCodec, base, false);
  EXPECT_EQ(w.syncs(), 1u);  // the header is always made durable
  for (std::uint64_t step = 2; step <= 8; ++step) {
    w.log_step(make_state(step));
  }
  EXPECT_EQ(w.syncs(), 3u);  // after records 3 and 6
  w.close();                 // final sync covers the 7th record
  EXPECT_EQ(w.syncs(), 4u);
  EXPECT_EQ(w.records(), 7u);
}

TEST(Wal, GroupCommitZeroSyncsEveryRecord) {
  io::MemEnv env;
  const auto base = make_state(1);
  WalPolicy policy;
  policy.group_commit_steps = 0;
  WalWriter w(env, "cp", 1, policy, kCodec, base, false);
  w.log_step(make_state(2));
  w.log_step(make_state(3));
  EXPECT_EQ(w.syncs(), 3u);  // header + one per record
}

TEST(Wal, OverBudgetTripsOnSizeAndZeroDisables) {
  io::MemEnv env;
  const auto base = make_state(1);
  WalPolicy tight;
  tight.max_log_bytes = 64;  // smaller than any one record
  WalWriter w(env, "cp", 1, tight, kCodec, base, false);
  EXPECT_FALSE(w.over_budget());  // header alone fits
  w.log_step(make_state(2));
  EXPECT_TRUE(w.over_budget());

  WalPolicy unbounded;
  unbounded.max_log_bytes = 0;
  WalWriter u(env, "cp", 2, unbounded, kCodec, base, false);
  u.log_step(make_state(2));
  EXPECT_FALSE(u.over_budget());
}

TEST(Wal, FailedAppendRefusesFurtherRecords) {
  io::MemEnv mem;
  FailingAppendEnv env(mem);
  const auto base = make_state(1);
  WalWriter w(env, "cp", 1, WalPolicy{}, kCodec, base, false);
  w.log_step(make_state(2));
  env.fail_next_plain_append = true;
  EXPECT_THROW(w.log_step(make_state(3)), std::runtime_error);
  EXPECT_TRUE(w.failed());
  EXPECT_EQ(w.records(), 1u);
  // The writer's delta bases may not be what the log holds any more:
  // it takes no further record, even though the env works again.
  EXPECT_THROW(w.log_step(make_state(4)), std::logic_error);
  w.close();

  auto sections = raw_sections(base);
  const auto replay = replay_wal(env, "cp", 1, sections);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_EQ(state_of(sections), make_state(2));
}

// ---------- Checkpointer integration ----------

TEST(CheckpointerWal, LogsBetweenInstallsAndRecoveryReplays) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 5;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  policy.wal.group_commit_steps = 1;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 8; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  // One install (step 5) and one journal record per step after it.
  EXPECT_EQ(ck.stats().checkpoints, 1u);
  EXPECT_EQ(ck.stats().wal_records, 3u);
  EXPECT_GT(ck.stats().wal_bytes, 0u);

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 8u);
  EXPECT_EQ(outcome->state, make_state(8));
  bool noted = false;
  for (const std::string& note : outcome->notes) {
    noted = noted || note.find("replayed") != std::string::npos;
  }
  EXPECT_TRUE(noted) << "replay must be surfaced in recovery notes";

  // Recovery is repeatable: a crash mid-recovery changes nothing.
  const auto again = recover_latest(env, "cp");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->state, outcome->state);

  // Exactly one journal on disk, and it belongs to the manifest tip.
  const auto files = wal_files(env, "cp");
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(parse_wal_file_name(files[0]),
            Manifest::load(env, "cp").latest()->id);
}

TEST(CheckpointerWal, RecoveryWithoutJournalRecordsUsesBaseCheckpoint) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 4;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 4; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  // Install at step 4, journal rotated but empty.
  EXPECT_EQ(ck.stats().wal_records, 0u);
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 4u);
  EXPECT_EQ(outcome->state, make_state(4));
}

TEST(CheckpointerWal, OverBudgetJournalCompactsIntoInstall) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 3;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  policy.wal.max_log_bytes = 1;  // every record overflows: compact always
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 6; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  // Install at step 3 (policy), then compaction installs at 4, 5, 6.
  EXPECT_EQ(ck.stats().checkpoints, 4u);
  EXPECT_EQ(ck.stats().wal_compactions, 3u);
  EXPECT_EQ(ck.stats().wal_records, 0u);

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 6u);
  EXPECT_EQ(outcome->state, make_state(6));

  // Rotation reaped every superseded log along the way.
  const auto files = wal_files(env, "cp");
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(parse_wal_file_name(files[0]),
            Manifest::load(env, "cp").latest()->id);
}

TEST(CheckpointerWal, TornJournalTailRecoversLastFramedRecord) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 5;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  policy.wal.group_commit_steps = 1;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 8; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  const std::uint64_t tip = Manifest::load(env, "cp").latest()->id;
  const std::string log = "cp/" + wal_file_name(tip);
  const auto size = env.file_size(log);
  ASSERT_TRUE(size.has_value());
  ASSERT_TRUE(env.truncate(log, *size - 1));  // tear the step-8 frame

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 7u);
  EXPECT_EQ(outcome->state, make_state(7));
}

TEST(CheckpointerWal, FailedAppendInstallsInsteadOfLoggingOnStaleBases) {
  // A constant loss history keeps every section the same size, so the
  // replay's base_len check cannot catch a record deltaed against a
  // state the journal never held.
  const auto state = [](std::uint64_t step) {
    auto s = make_state(step);
    s.loss_history.assign(4, 0.5);
    return s;
  };
  // The failing append: step 12's record, or the header of the log the
  // step-20 install rotates to (the install itself is durable).
  for (const std::uint64_t failing : {12u, 20u}) {
    SCOPED_TRACE("append of step " + std::to_string(failing) + " fails");
    io::MemEnv mem;
    FailingAppendEnv env(mem);
    CheckpointPolicy policy;
    policy.every_steps = 10;
    policy.retention.keep_last = 0;
    policy.wal.enable = true;
    policy.wal.group_commit_steps = 1;
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step < failing; ++step) {
      ck.maybe_checkpoint(state(step));  // install at 10, records after
    }
    env.fail_next_plain_append = true;
    EXPECT_THROW(ck.maybe_checkpoint(state(failing)), std::runtime_error);
    // The journal no longer matches its writer, or was never opened: the
    // next step is installed (rotating the log) instead of being deltaed
    // against stale bases or skipped.
    EXPECT_TRUE(ck.maybe_checkpoint(state(failing + 1)));
    EXPECT_EQ(ck.stats().wal_records, failing - 11);
    for (std::uint64_t step = failing + 2; step <= 25; ++step) {
      ck.maybe_checkpoint(state(step));
    }

    // Recovery returns a state that was actually checkpointed: the
    // newest.
    const auto outcome = recover_latest(env, "cp");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->step, 25u);
    EXPECT_EQ(outcome->state, state(25));
  }
}

TEST(CheckpointerWal, UnloadableReplayFallsBackToTheBaseCheckpoint) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 5;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 5; ++step) {
      ck.maybe_checkpoint(make_state(step));
    }
  }
  // A CRC-valid record whose full (non-delta) params body applies but is
  // not a serialized vector: the replayed state cannot load, and the
  // base checkpoint — resolved again, not held as a spare copy — wins.
  const std::uint64_t tip = Manifest::load(env, "cp").latest()->id;
  const std::string log = "cp/" + wal_file_name(tip);
  util::Bytes payload;
  util::put_le<std::uint64_t>(payload, 6);
  util::put_le<std::uint32_t>(payload, 1);
  put_section(payload, SectionKind::kParams, 0, 0, util::Bytes{1, 2, 3});
  auto file = env.read_file(log);
  ASSERT_TRUE(file.has_value());
  append_frame(*file, payload);
  env.write_file_atomic(log, util::ByteSpan{*file});

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, tip);
  EXPECT_EQ(outcome->step, 5u);
  EXPECT_EQ(outcome->state, make_state(5));
  bool noted = false;
  for (const std::string& note : outcome->notes) {
    noted =
        noted || note.find("replayed state unloadable") != std::string::npos;
  }
  EXPECT_TRUE(noted);
  bool recorded = false;
  for (const FlightEvent& e : outcome->events) {
    recorded = recorded || e.name == "wal.replay_unloadable";
    EXPECT_NE(e.name, "wal.replay");
  }
  EXPECT_TRUE(recorded);
}

// ---------- stale-log reaping ----------

TEST(CheckpointStoreWal, SweepReapsStaleJournalsAndPinsActive) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  {
    Checkpointer ck(env, "cp", policy);
    ck.maybe_checkpoint(make_state(1));
    ck.maybe_checkpoint(make_state(2));
  }
  // Plant a journal for an epoch the manifest never advertised, as a
  // crash between fence and deletion would leave behind.
  const std::string stale = "cp/" + wal_file_name(77);
  env.write_file_atomic(stale, util::ByteSpan{});

  CheckpointStore store(env, "cp", policy.retention);
  const Manifest manifest = Manifest::load(env, "cp");
  EXPECT_EQ(store.plan_stale_wals(manifest),
            std::vector<std::string>{wal_file_name(77)});
  store.sweep_orphans(manifest);
  EXPECT_FALSE(env.exists(stale));
  EXPECT_TRUE(env.exists("cp/" + wal_file_name(manifest.latest()->id)));
  EXPECT_EQ(store.stats().wals_reaped, 1u);
}

TEST(CheckpointStoreWal, DamagedManifestSuppressesWalReaping) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  {
    Checkpointer ck(env, "cp", policy);
    ck.maybe_checkpoint(make_state(1));
  }
  env.write_file_atomic("cp/" + wal_file_name(77), util::ByteSpan{});

  // Tear the manifest: a loader warning means no journal may be called
  // stale — the manifest may have lost the very line that pins it.
  const auto data = env.read_file("cp/MANIFEST");
  ASSERT_TRUE(data.has_value());
  env.write_file_atomic("cp/MANIFEST",
                        util::ByteSpan{data->data(), data->size() - 1});
  const Manifest damaged = Manifest::load(env, "cp");
  ASSERT_GT(damaged.parse_warnings(), 0u);

  CheckpointStore store(env, "cp", policy.retention);
  EXPECT_TRUE(store.plan_stale_wals(damaged).empty());
  store.sweep_orphans(damaged);
  EXPECT_TRUE(env.exists("cp/" + wal_file_name(77)));
}

}  // namespace
}  // namespace qnn::ckpt
