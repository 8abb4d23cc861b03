// Unit + property tests for qnn::codec — RLE, LZ, XOR deltas, registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>

#include "codec/codec.hpp"
#include "codec/xor_delta.hpp"
#include "util/crc.hpp"
#include "util/varint.hpp"
#include "util/rng.hpp"

namespace qnn::codec {
namespace {

using util::Bytes;
using util::ByteSpan;

// ---------- payload generators modelling real checkpoint sections ----------

Bytes zeros(std::size_t n) { return Bytes(n, 0); }

Bytes incompressible(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng());
  }
  return out;
}

Bytes runs(std::size_t n) {
  Bytes out;
  std::uint8_t v = 0;
  while (out.size() < n) {
    const std::size_t len =
        std::min<std::size_t>(1 + (v % 200), n - out.size());
    out.insert(out.end(), len, v);
    v = static_cast<std::uint8_t>(v * 31 + 7);
  }
  return out;
}

Bytes repeated_text(std::size_t n) {
  const std::string phrase = "hybrid quantum-classical training state ";
  Bytes out;
  while (out.size() < n) {
    const std::size_t take = std::min(phrase.size(), n - out.size());
    out.insert(out.end(), phrase.begin(), phrase.begin() + take);
  }
  return out;
}

/// Slowly varying doubles (what Adam moments look like).
Bytes similar_doubles(std::size_t n_doubles, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes out;
  double v = 1.0;
  for (std::size_t i = 0; i < n_doubles; ++i) {
    v += rng.normal() * 1e-9;
    util::put_le<double>(out, v);
  }
  return out;
}

struct PayloadCase {
  std::string name;
  Bytes data;
};

std::vector<PayloadCase> payload_cases() {
  return {
      {"empty", {}},
      {"one_byte", {0x42}},
      {"three_bytes", {1, 2, 3}},
      {"zeros_small", zeros(17)},
      {"zeros_large", zeros(100000)},
      {"runs", runs(5000)},
      {"text", repeated_text(4096)},
      {"random_small", incompressible(255, 1)},
      {"random_large", incompressible(1 << 17, 2)},
      {"similar_doubles", similar_doubles(4096, 3)},
      {"alternating", [] {
         Bytes b;
         for (int i = 0; i < 1000; ++i) {
           b.push_back(i % 2 ? 0xFF : 0x00);
         }
         return b;
       }()},
  };
}

// ---------- parameterised round-trip property over codecs x payloads -------

using CodecPayload = std::tuple<CodecId, int>;

class CodecRoundTrip : public ::testing::TestWithParam<CodecPayload> {};

TEST_P(CodecRoundTrip, EncodeDecodeIsIdentity) {
  const auto [id, payload_idx] = GetParam();
  const PayloadCase pc = payload_cases()[static_cast<std::size_t>(payload_idx)];
  const Bytes encoded = encode(id, pc.data);
  const Bytes decoded = decode(id, encoded, pc.data.size());
  EXPECT_EQ(decoded, pc.data) << codec_name(id) << " on " << pc.name;
}

TEST_P(CodecRoundTrip, WorstCaseExpansionBounded) {
  const auto [id, payload_idx] = GetParam();
  const PayloadCase pc = payload_cases()[static_cast<std::size_t>(payload_idx)];
  const Bytes encoded = encode(id, pc.data);
  EXPECT_LE(encoded.size(), pc.data.size() + pc.data.size() / 128 + 16)
      << codec_name(id) << " on " << pc.name;
}

std::string codec_payload_name(
    const ::testing::TestParamInfo<CodecPayload>& info) {
  const CodecId id = std::get<0>(info.param);
  const int payload_idx = std::get<1>(info.param);
  std::string name =
      codec_name(id) + "_" +
      payload_cases()[static_cast<std::size_t>(payload_idx)].name;
  for (char& c : name) {
    if (c == '+') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllPayloads, CodecRoundTrip,
    ::testing::Combine(::testing::ValuesIn(std::vector<CodecId>(
                           std::begin(kAllCodecs), std::end(kAllCodecs))),
                       ::testing::Range(0, 11)),
    codec_payload_name);

// ---------- compression effectiveness (the T2 claim shapes) ----------

TEST(CodecEffectiveness, RleCollapsesZeroRuns) {
  const Bytes data = zeros(100000);
  // Max run length is 131, so the floor is ~2 bytes per 131 zeros.
  EXPECT_LT(encode(CodecId::kRle, data).size(), data.size() / 50);
}

TEST(CodecEffectiveness, LzCollapsesRepeatedText) {
  const Bytes data = repeated_text(8192);
  EXPECT_LT(encode(CodecId::kLz, data).size(), data.size() / 10);
}

TEST(CodecEffectiveness, DeltaHelpsSimilarDoubles) {
  const Bytes data = similar_doubles(8192, 9);
  const std::size_t plain = encode(CodecId::kLz, data).size();
  const std::size_t delta = encode(CodecId::kDeltaLz, data).size();
  EXPECT_LT(delta, plain);
}

TEST(CodecEffectiveness, RandomDataDoesNotBlowUp) {
  const Bytes data = incompressible(1 << 16, 11);
  for (CodecId id : kAllCodecs) {
    EXPECT_LE(encode(id, data).size(), data.size() + data.size() / 128 + 16)
        << codec_name(id);
  }
}

// ---------- RLE specifics ----------

TEST(Rle, EncodesLongRunCompactly) {
  const Bytes data(131, 0x7);  // exactly max run length
  const Bytes enc = rle_encode(data);
  EXPECT_EQ(enc.size(), 2u);
  EXPECT_EQ(rle_decode(enc, data.size()), data);
}

TEST(Rle, ShortRunsStayLiteral) {
  const Bytes data{1, 1, 1, 2, 2, 2};  // runs of 3 < kMinRun
  const Bytes enc = rle_encode(data);
  EXPECT_EQ(rle_decode(enc, data.size()), data);
}

TEST(Rle, DecodeRejectsTruncatedLiteral) {
  Bytes enc{0x05, 1, 2};  // literal run of 6, only 2 present
  EXPECT_THROW(rle_decode(enc, 6), std::runtime_error);
}

TEST(Rle, DecodeRejectsTruncatedRepeat) {
  Bytes enc{0x80};  // repeat token without the byte
  EXPECT_THROW(rle_decode(enc, 4), std::runtime_error);
}

TEST(Rle, DecodeRejectsLengthMismatch) {
  const Bytes data(50, 9);
  const Bytes enc = rle_encode(data);
  EXPECT_THROW(rle_decode(enc, 49), std::runtime_error);
  EXPECT_THROW(rle_decode(enc, 51), std::runtime_error);
}

// ---------- LZ specifics ----------

TEST(Lz, OverlappingMatchExtendsRuns) {
  // "abcabcabc..." triggers dist < len copies.
  Bytes data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<std::uint8_t>("abc"[i % 3]));
  }
  const Bytes enc = lz_encode(data);
  EXPECT_LT(enc.size(), 64u);
  EXPECT_EQ(lz_decode(enc, data.size()), data);
}

TEST(Lz, DecodeRejectsBadDistance) {
  Bytes enc;
  util::put_varint(enc, 1);  // 1 literal
  enc.push_back('x');
  util::put_varint(enc, 1);   // match len 4
  util::put_varint(enc, 99);  // distance beyond output
  EXPECT_THROW(lz_decode(enc, 5), std::runtime_error);
}

TEST(Lz, DecodeRejectsZeroDistance) {
  Bytes enc;
  util::put_varint(enc, 1);
  enc.push_back('x');
  util::put_varint(enc, 1);
  util::put_varint(enc, 0);
  EXPECT_THROW(lz_decode(enc, 5), std::runtime_error);
}

TEST(Lz, DecodeRejectsTruncatedLiterals) {
  Bytes enc;
  util::put_varint(enc, 10);
  enc.push_back('x');  // 9 missing
  EXPECT_THROW(lz_decode(enc, 10), std::runtime_error);
}

TEST(Lz, DecodeRejectsOverlongOutput) {
  const Bytes data = repeated_text(256);
  const Bytes enc = lz_encode(data);
  EXPECT_THROW(lz_decode(enc, 100), std::runtime_error);
}

TEST(Lz, WindowBoundaryRoundTrip) {
  // Repetition spaced near the 64 KiB window edge.
  Bytes data = incompressible(1 << 16, 20);
  const Bytes prefix(data.begin(), data.begin() + 512);
  data.insert(data.end(), prefix.begin(), prefix.end());
  const Bytes enc = lz_encode(data);
  EXPECT_EQ(lz_decode(enc, data.size()), data);
}

/// A hand-built token stream: `lits` as one literal run, one match of
/// `len` bytes at distance `dist`, then the end marker.
Bytes lz_stream(const Bytes& lits, std::uint64_t len, std::uint64_t dist) {
  Bytes enc;
  util::put_varint(enc, lits.size());
  enc.insert(enc.end(), lits.begin(), lits.end());
  util::put_varint(enc, len - 3);  // match_code: len - kMinMatch + 1
  util::put_varint(enc, dist);
  util::put_varint(enc, 0);
  util::put_varint(enc, 0);
  return enc;
}

/// `pattern` repeated to `n` bytes.
Bytes periodic(const Bytes& pattern, std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = pattern[i % pattern.size()];
  }
  return out;
}

TEST(Lz, OverlappingMatchesOfShortPeriodsRoundTrip) {
  // dist 1 is the memset path, other dist < len the doubling copies;
  // odd lengths end each copy sequence on a partial period.
  for (const std::size_t period : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16}) {
    const Bytes pattern = incompressible(period, 50 + period);
    for (const std::size_t len : {4, 17, 31, 1000, 4099}) {
      const Bytes expect = periodic(pattern, period + len);
      EXPECT_EQ(lz_decode(lz_stream(pattern, len, period), expect.size()),
                expect)
          << "period " << period << " len " << len;
    }
    const Bytes data = periodic(pattern, 5000);
    const Bytes enc = lz_encode(data);
    EXPECT_LT(enc.size(), 64 + period) << "period " << period;
    EXPECT_EQ(lz_decode(enc, data.size()), data) << "period " << period;
  }
}

TEST(Lz, MaximalMatchRoundTrips) {
  // A token carries at most a 64 KiB match: zeros after one literal
  // encode as exactly one distance-1 match of that length.
  const Bytes data = zeros(1 + (1 << 16));
  const Bytes enc = lz_encode(data);
  std::size_t pos = 0;
  EXPECT_EQ(util::get_varint(enc, pos), 1u);  // one literal
  ++pos;
  EXPECT_EQ(util::get_varint(enc, pos), (1u << 16) - 3);  // longest code
  EXPECT_EQ(util::get_varint(enc, pos), 1u);              // distance
  EXPECT_EQ(lz_decode(enc, data.size()), data);

  const Bytes lits{1, 2, 3};
  const Bytes expect = periodic(lits, 3 + (1 << 16));
  EXPECT_EQ(lz_decode(lz_stream(lits, 1 << 16, 3), expect.size()), expect);
}

/// decode_to(kLz, ...) reassembled from its pieces, which must arrive
/// in order and without gaps; `pieces` counts them.
Bytes windowed_decode(ByteSpan encoded, std::size_t raw_len,
                      std::size_t* pieces = nullptr) {
  Bytes out;
  decode_to(CodecId::kLz, encoded, raw_len,
            [&](std::size_t offset, ByteSpan bytes) {
              EXPECT_EQ(offset, out.size()) << "pieces out of order";
              out.insert(out.end(), bytes.begin(), bytes.end());
              if (pieces != nullptr) {
                ++*pieces;
              }
            });
  return out;
}

TEST(Lz, DecodeRejectsEveryMalformedShape) {
  // Every form of the token loop: lz_decode, the windowed decode_to, and
  // the check-only check_decodes, which must give the windowed verdict.
  const std::function<void(ByteSpan, std::size_t)> decoders[] = {
      [](ByteSpan e, std::size_t n) { lz_decode(e, n); },
      [](ByteSpan e, std::size_t n) { windowed_decode(e, n); },
      [](ByteSpan e, std::size_t n) { check_decodes(CodecId::kLz, e, n); },
  };
  for (const auto& decode_with : decoders) {
    // Distance beyond the output produced so far.
    EXPECT_THROW(decode_with(lz_stream({1, 2}, 4, 3), 6), std::runtime_error);
    // A match running past the declared length.
    EXPECT_THROW(decode_with(lz_stream({1}, 8, 1), 5), std::runtime_error);
    // Literals running past the declared length.
    EXPECT_THROW(decode_with(lz_stream({1, 2, 3, 4, 5, 6}, 4, 1), 5),
                 std::runtime_error);
    // A match code so large that adding the minimum match would wrap.
    Bytes huge;
    util::put_varint(huge, 1);
    huge.push_back(7);
    util::put_varint(huge, ~std::uint64_t{0});
    util::put_varint(huge, 1);
    EXPECT_THROW(decode_with(huge, 5), std::exception);
    // Output shorter than declared.
    EXPECT_THROW(decode_with(lz_stream({1}, 4, 1), 6), std::runtime_error);
    const Bytes text = repeated_text(300);
    EXPECT_THROW(decode_with(lz_encode(text), 301), std::runtime_error);
    // Truncated literals, and a stream cut inside a token.
    Bytes cut = lz_stream({1, 2, 3, 4}, 4, 1);
    cut.resize(3);
    EXPECT_THROW(decode_with(cut, 8), std::runtime_error);
    cut = lz_stream({1, 2, 3, 4}, 4, 1);
    cut.resize(6);  // the distance varint is missing
    EXPECT_THROW(decode_with(cut, 8), std::out_of_range);
  }
}

TEST(Lz, WindowedDecodeRejectsAMatchPastItsWindow) {
  // 400 KiB of literals fill the window past its first flush; then a
  // match 64 KiB + 1 back reaches past the history the windowed form
  // keeps. lz_decode holds the whole output and accepts it; the encoder
  // never writes it (its matches reach at most 64 KiB back).
  const Bytes lits = incompressible(400 << 10, 31);
  const std::size_t raw_len = lits.size() + 4;
  const Bytes far = lz_stream(lits, 4, (1 << 16) + 1);
  Bytes expect = lits;
  expect.insert(expect.end(), lits.end() - (1 << 16) - 1,
                lits.end() - (1 << 16) + 3);
  EXPECT_EQ(lz_decode(far, raw_len), expect);
  EXPECT_THROW(windowed_decode(far, raw_len), std::runtime_error);
  EXPECT_THROW(check_decodes(CodecId::kLz, far, raw_len), std::runtime_error);
  // Exactly 64 KiB back is inside the window.
  const Bytes edge = lz_stream(lits, 4, 1 << 16);
  EXPECT_EQ(windowed_decode(edge, raw_len), lz_decode(edge, raw_len));
  EXPECT_NO_THROW(check_decodes(CodecId::kLz, edge, raw_len));
}

/// A run of period `period` longer than the window (two matches of at
/// most 64 KiB), then, for every phase of the period, noise and a
/// back-reference into the run's interior. Which of the run's positions
/// the matcher leaves in its head table decides each back-reference's
/// distance, so these rows pin the positions it inserts inside a match.
Bytes run_with_backrefs(std::size_t period) {
  const Bytes run = periodic(incompressible(period, 100 + period),
                             (80 << 10) + period / 2);
  Bytes out = run;
  for (std::size_t phase = 0; phase < period; ++phase) {
    const Bytes noise = incompressible(1000 + phase, 110 + phase);
    out.insert(out.end(), noise.begin(), noise.end());
    const auto from = run.begin() + (40 << 10) + static_cast<long>(phase);
    out.insert(out.end(), from, from + 40);
  }
  const Bytes tail = incompressible(100, 130);
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

/// Encoder corpus: the round-trip payloads plus the shapes the delta
/// journal and the delta chunks feed LZ (sparse XOR deltas, short
/// periods, long runs, noise).
std::vector<PayloadCase> lz_corpus() {
  std::vector<PayloadCase> out = payload_cases();
  Bytes sparse = zeros(1 << 20);
  util::Rng rng(77);
  for (int r = 0; r < 4; ++r) {
    const std::size_t at = rng.uniform_u64(sparse.size() - 4096);
    const Bytes noise = incompressible(4096, 80 + r);
    std::copy(noise.begin(), noise.end(),
              sparse.begin() + static_cast<std::ptrdiff_t>(at));
  }
  out.push_back({"sparse_delta", sparse});
  for (const std::size_t period : {3, 7, 16}) {
    out.push_back({"period_" + std::to_string(period),
                   periodic(incompressible(period, 90 + period), 10000)});
  }
  Bytes window = incompressible(1 << 16, 20);
  window.insert(window.end(), window.begin(), window.begin() + 512);
  out.push_back({"window_edge", window});
  for (const std::size_t period : {1, 2, 3, 8, 16}) {
    out.push_back({"run_" + std::to_string(period) + "_backrefs",
                   run_with_backrefs(period)});
  }
  // A delta chunk in recover-chain's shape: one 64 KiB region rewritten
  // in a 256 KiB chunk of zeros.
  Bytes region = zeros(256 << 10);
  const Bytes noise = incompressible(64 << 10, 140);
  std::copy(noise.begin(), noise.end(), region.begin() + (96 << 10));
  out.push_back({"sparse_256k", region});
  out.push_back({"noise_256k", incompressible(256 << 10, 141)});
  return out;
}

TEST(Lz, WindowedDecodeMatchesDecodeOnTheCorpus) {
  auto corpus = lz_corpus();
  // Longer than the window plus two pieces, in 200 KiB blocks: the
  // flushes cut through literal runs (noise), overlapping matches
  // (periods 7 and 3) and distance-1 fills (zeros).
  Bytes blocks = incompressible(200 << 10, 41);
  const Bytes period_7 = periodic(incompressible(7, 42), 200 << 10);
  blocks.insert(blocks.end(), period_7.begin(), period_7.end());
  const Bytes noise = incompressible(200 << 10, 43);
  blocks.insert(blocks.end(), noise.begin(), noise.end());
  const Bytes period_3 = periodic(incompressible(3, 44), 200 << 10);
  blocks.insert(blocks.end(), period_3.begin(), period_3.end());
  blocks.resize(blocks.size() + (200 << 10), 0);
  corpus.push_back({"blocks", blocks});
  for (const PayloadCase& pc : corpus) {
    const Bytes enc = encode(CodecId::kLz, pc.data);
    std::size_t pieces = 0;
    EXPECT_EQ(windowed_decode(enc, pc.data.size(), &pieces),
              decode(CodecId::kLz, enc, pc.data.size()))
        << pc.name;
    EXPECT_NO_THROW(check_decodes(CodecId::kLz, enc, pc.data.size()))
        << pc.name;
    if (pc.name == "blocks") {
      EXPECT_GE(pieces, 3u) << "the window never flushed";
    }
  }
}

TEST(Lz, EncoderOutputMatchesCheckedInDigests) {
  // Size and CRC32C of lz_encode's output per corpus entry, recorded with
  // the byte-at-a-time matcher and a freshly filled head table per call;
  // the rows from run_1_backrefs on were recorded with the encoder that
  // still inserted every other position inside a match and scanned
  // literals with a branch per candidate test. Every LZ-coded byte on
  // disk depends on this stream; a mismatch prints the row the current
  // encoder would need.
  struct Golden {
    const char* name;
    std::size_t size;
    std::uint32_t crc;
  };
  const Golden kGolden[] = {
      {"empty", 0, 0x0},
      {"one_byte", 3, 0x1d77c7ee},
      {"three_bytes", 5, 0xab8c96ed},
      {"zeros_small", 6, 0x4d787d40},
      {"zeros_large", 13, 0x4dcbae7a},
      {"runs", 73, 0xb732615f},
      {"text", 46, 0xa2d215df},
      {"random_small", 258, 0xcdb8cb66},
      {"random_large", 131079, 0x51306953},
      {"similar_doubles", 24987, 0x12657c68},
      {"alternating", 8, 0xf3ec366e},
      {"sparse_delta", 16500, 0x2b3b5e9f},
      {"period_3", 9, 0xa0190ac9},
      {"period_7", 13, 0xd37ea439},
      {"period_16", 22, 0x082763e5},
      {"window_edge", 65549, 0x7fa8476b},
      {"run_1_backrefs", 1120, 0xfd3b0509},
      {"run_2_backrefs", 2130, 0x6b920111},
      {"run_3_backrefs", 3145, 0x1f47900e},
      {"run_8_backrefs", 8209, 0x2fa24f53},
      {"run_16_backrefs", 16367, 0x70baae4c},
      {"sparse_256k", 65562, 0x1b2796b3},
      {"noise_256k", 262158, 0xdc96da0d},
  };
  const auto corpus = lz_corpus();
  ASSERT_EQ(corpus.size(), std::size(kGolden));
  // Two passes: every call after the first reuses the thread's head table.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Bytes enc = lz_encode(corpus[i].data);
      const std::uint32_t crc = util::crc32c(enc);
      EXPECT_TRUE(corpus[i].name == kGolden[i].name &&
                  enc.size() == kGolden[i].size && crc == kGolden[i].crc)
          << "{\"" << corpus[i].name << "\", " << enc.size() << ", 0x"
          << std::hex << crc << "},";
    }
  }
}

// ---------- the sampled probe ----------

/// Uniform doubles in [-1, 1): what a parameter block looks like.
Bytes uniform_doubles(std::size_t n_doubles, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes out;
  for (std::size_t i = 0; i < n_doubles; ++i) {
    util::put_le<double>(out, rng.uniform(-1.0, 1.0));
  }
  return out;
}

constexpr CodecId kCompressors[] = {CodecId::kRle, CodecId::kLz,
                                    CodecId::kDeltaLz, CodecId::kDeltaRle};

TEST(Probe, NoiseOf64KiBOrMoreIsNotWorthEncoding) {
  const std::size_t sizes[] = {kProbeMinBytes, 256 << 10, (1 << 20) + 12345};
  for (const std::size_t n : sizes) {
    const std::vector<PayloadCase> noise = {
        {"incompressible", incompressible(n, 60)},
        {"uniform_doubles", uniform_doubles(n / 8, 61)},
    };
    for (const PayloadCase& pc : noise) {
      for (const CodecId id : kAllCodecs) {
        EXPECT_FALSE(worth_encoding(id, pc.data))
            << codec_name(id) << " on " << pc.name << " n=" << n;
        // The verdict is right: the full encode would not be smaller.
        EXPECT_GE(encode(id, pc.data).size(), pc.data.size())
            << codec_name(id) << " on " << pc.name << " n=" << n;
      }
    }
  }
}

TEST(Probe, RawIsNeverWorthEncoding) {
  const std::size_t sizes[] = {0, 100, kProbeMinBytes, 1 << 20};
  for (const std::size_t n : sizes) {
    EXPECT_FALSE(worth_encoding(CodecId::kRaw, zeros(n))) << "n=" << n;
  }
}

TEST(Probe, RedundantPayloadsAreWorthEncoding) {
  const std::size_t n = std::size_t{256} << 10;
  Bytes noise_then_zeros = incompressible(n - kProbeMinBytes, 62);
  noise_then_zeros.resize(n, 0);
  Bytes sparse_delta;
  for (const PayloadCase& pc : lz_corpus()) {
    if (pc.name == "sparse_delta") {
      sparse_delta = pc.data;
    }
  }
  ASSERT_FALSE(sparse_delta.empty());
  const std::vector<PayloadCase> redundant = {
      {"zeros", zeros(n)},
      {"runs", runs(n)},
      {"repeated_text", repeated_text(n)},
      {"similar_doubles", similar_doubles(n / 8, 63)},
      {"sparse_delta", sparse_delta},
      {"noise_then_64KiB_zeros", noise_then_zeros},
  };
  for (const PayloadCase& pc : redundant) {
    for (const CodecId id : {CodecId::kLz, CodecId::kDeltaLz}) {
      EXPECT_TRUE(worth_encoding(id, pc.data))
          << codec_name(id) << " on " << pc.name;
      EXPECT_LT(encode(id, pc.data).size(), pc.data.size())
          << codec_name(id) << " on " << pc.name;
    }
    // A byte-run coder is worth it where the full encode shrinks too.
    for (const CodecId id : {CodecId::kRle, CodecId::kDeltaRle}) {
      EXPECT_EQ(worth_encoding(id, pc.data),
                encode(id, pc.data).size() < pc.data.size())
          << codec_name(id) << " on " << pc.name;
    }
  }
  for (const CodecId id : kCompressors) {
    for (const Bytes& data : {zeros(n), sparse_delta, noise_then_zeros}) {
      EXPECT_TRUE(worth_encoding(id, data)) << codec_name(id);
    }
  }
}

TEST(Probe, PayloadsUnder64KiBAreAlwaysWorthEncoding) {
  const std::size_t sizes[] = {0, 1, 4096, kProbeMinBytes - 1};
  for (const std::size_t n : sizes) {
    for (const CodecId id : kCompressors) {
      EXPECT_TRUE(worth_encoding(id, incompressible(n, 64)))
          << codec_name(id) << " n=" << n;
    }
  }
}

// ---------- XOR delta ----------

TEST(XorDelta, WithParentIsInvolution) {
  const Bytes a = incompressible(1000, 30);
  const Bytes b = incompressible(1000, 31);
  const Bytes delta = xor_with_parent(a, b);
  EXPECT_EQ(xor_with_parent(delta, b), a);
}

TEST(XorDelta, IdenticalPayloadsDeltaToZeros) {
  const Bytes a = incompressible(512, 32);
  const Bytes delta = xor_with_parent(a, a);
  EXPECT_EQ(delta, zeros(512));
}

TEST(XorDelta, ChildLongerThanParentTailPassesThrough) {
  const Bytes child = incompressible(100, 33);
  const Bytes parent = incompressible(60, 34);
  const Bytes delta = xor_with_parent(child, parent);
  for (std::size_t i = 60; i < 100; ++i) {
    ASSERT_EQ(delta[i], child[i]);
  }
  EXPECT_EQ(xor_with_parent(delta, parent), child);
}

TEST(XorDelta, Intra64RoundTrip) {
  for (std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 16ul, 123ul, 4096ul}) {
    const Bytes data = incompressible(n, 35 + n);
    EXPECT_EQ(xor_undelta64(xor_delta64(data)), data) << "n=" << n;
  }
}

TEST(XorDelta, Intra64LeavesTailUntouched) {
  const Bytes data = incompressible(19, 36);  // 2 words + 3 tail bytes
  const Bytes delta = xor_delta64(data);
  for (std::size_t i = 16; i < 19; ++i) {
    ASSERT_EQ(delta[i], data[i]);
  }
}

// ---------- randomized roundtrips ----------

/// Every codec must round-trip arbitrary random-sized inputs at both ends
/// of the entropy spectrum: incompressible noise (statevector-like) and
/// highly repetitive bytes (delta'd-optimizer-like).
TEST(RandomizedRoundTrip, IncompressibleInputsAllCodecs) {
  util::Rng rng(20250726);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng() % 5000);
    const Bytes data = incompressible(n, rng());
    for (CodecId id : kAllCodecs) {
      const Bytes enc = encode(id, data);
      EXPECT_EQ(decode(id, enc, data.size()), data)
          << codec_name(id) << " n=" << n << " trial=" << trial;
      // Bounded worst-case expansion (codec.hpp contract).
      EXPECT_LE(enc.size(), data.size() + data.size() / 128 + 16)
          << codec_name(id) << " n=" << n;
    }
  }
}

TEST(RandomizedRoundTrip, RepetitiveInputsAllCodecs) {
  util::Rng rng(424242);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng() % 5000);
    // Random run structure: a few distinct byte values in random-length
    // runs, the shape RLE/LZ are meant to collapse.
    Bytes data;
    while (data.size() < n) {
      const auto value = static_cast<std::uint8_t>(rng() % 4);
      const std::size_t len =
          std::min<std::size_t>(1 + rng() % 300, n - data.size());
      data.insert(data.end(), len, value);
    }
    for (CodecId id : kAllCodecs) {
      const Bytes enc = encode(id, data);
      EXPECT_EQ(decode(id, enc, data.size()), data)
          << codec_name(id) << " n=" << n << " trial=" << trial;
    }
  }
}

// ---------- vectorized kernels vs scalar oracles ----------
//
// The default entry points (SSE2-assisted on x86-64) must emit EXACTLY
// the bytes the scalar reference loops emit — for RLE that means the
// identical token stream, not just a stream that decodes back.

TEST(SimdParity, XorKernelsMatchScalarOnAllPayloads) {
  for (const PayloadCase& pc : payload_cases()) {
    EXPECT_EQ(xor_delta64(pc.data), xor_delta64_scalar(pc.data)) << pc.name;
    EXPECT_EQ(xor_undelta64(pc.data), xor_undelta64_scalar(pc.data))
        << pc.name;
  }
}

TEST(SimdParity, RleTokenStreamMatchesScalarOnAllPayloads) {
  for (const PayloadCase& pc : payload_cases()) {
    EXPECT_EQ(rle_encode(pc.data), rle_encode_scalar(pc.data)) << pc.name;
  }
}

TEST(SimdParity, FuzzAcrossLengthsAndContent) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = rng.uniform_u64(4200);
    Bytes data(n);
    // Mixed regime: runs of a repeated byte interleaved with noise, the
    // content most likely to hit the RLE scan's block/tail boundaries.
    std::size_t i = 0;
    while (i < n) {
      const auto b = static_cast<std::uint8_t>(rng());
      std::size_t len = 1 + rng.uniform_u64(20);
      const bool noisy = (rng() & 1) != 0;
      while (len-- > 0 && i < n) {
        data[i++] = noisy ? static_cast<std::uint8_t>(rng()) : b;
      }
    }
    ASSERT_EQ(rle_encode(data), rle_encode_scalar(data)) << "trial " << trial;
    ASSERT_EQ(xor_delta64(data), xor_delta64_scalar(data)) << "trial "
                                                           << trial;
    ASSERT_EQ(xor_undelta64(data), xor_undelta64_scalar(data))
        << "trial " << trial;
    ASSERT_EQ(xor_undelta64(xor_delta64(data)), data) << "trial " << trial;
  }
}

TEST(SimdParity, XorWithParentMatchesScalarOverZeroBlocks) {
  // Parents of all-zero, partly-zero and nonzero 64-byte blocks, whose
  // zero blocks the kernel skips, at lengths that leave a partial block.
  util::Rng rng(556);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t blocks = 1 + rng.uniform_u64(12);
    Bytes parent;
    for (std::size_t b = 0; b < blocks; ++b) {
      Bytes block = incompressible(64, 2000 + 16 * trial + b);
      switch (rng() % 3) {
        case 0:
          block.assign(64, 0);
          break;
        case 1: {
          const std::size_t at = rng.uniform_u64(64);
          std::fill_n(block.begin() + static_cast<long>(at),
                      rng.uniform_u64(64 - at), 0);
          block[rng.uniform_u64(64)] = 0x80;  // one set bit is enough
          break;
        }
        default:
          break;
      }
      parent.insert(parent.end(), block.begin(), block.end());
    }
    parent.resize(parent.size() - 1 - rng.uniform_u64(63));
    for (const std::size_t data_len :
         {parent.size(), parent.size() + 37, parent.size() / 2 + 5}) {
      const Bytes data = incompressible(data_len, 3000 + trial);
      ASSERT_EQ(xor_with_parent(data, parent),
                xor_with_parent_scalar(data, parent))
          << "trial " << trial << " data " << data_len;
    }
  }
}

TEST(SimdParity, XorWithParentMatchesScalarOnMismatchedLengths) {
  util::Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    const Bytes data = incompressible(rng.uniform_u64(600), 10 + trial);
    const Bytes parent = incompressible(rng.uniform_u64(600), 900 + trial);
    ASSERT_EQ(xor_with_parent(data, parent),
              xor_with_parent_scalar(data, parent))
        << "trial " << trial;
  }
}

// ---------- registry ----------

TEST(Registry, NamesRoundTrip) {
  for (CodecId id : kAllCodecs) {
    EXPECT_EQ(codec_from_name(codec_name(id)), id);
  }
  EXPECT_THROW(codec_from_name("bogus"), std::invalid_argument);
}

TEST(Registry, RawLengthMismatchThrows) {
  const Bytes data{1, 2, 3};
  EXPECT_THROW(decode(CodecId::kRaw, data, 4), std::runtime_error);
}

TEST(Registry, DecodeIsDeterministic) {
  const Bytes data = similar_doubles(1024, 40);
  for (CodecId id : kAllCodecs) {
    EXPECT_EQ(encode(id, data), encode(id, data)) << codec_name(id);
  }
}

}  // namespace
}  // namespace qnn::codec
