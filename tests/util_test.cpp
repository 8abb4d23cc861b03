// Unit tests for qnn::util — RNG, CRC, varint, byte codecs, strings, stats.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "tests/support/running_stats.hpp"
#include "util/bytes.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/varint.hpp"

namespace qnn::util {
namespace {

// ---------- Rng ----------

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a() == b() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, SerializeRoundTripContinuesStream) {
  Rng a(7);
  for (int i = 0; i < 17; ++i) {
    a();
  }
  a.normal();  // populate the cached-normal branch
  const Bytes state = a.serialize();

  Rng b(999);
  b.deserialize(state);
  EXPECT_EQ(a, b);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a(), b());
  }
  EXPECT_DOUBLE_EQ(a.normal(), b.normal());
}

TEST(Rng, DeserializeRejectsShortBuffer) {
  Rng a(1);
  Bytes state = a.serialize();
  state.resize(state.size() - 1);
  Rng b(2);
  EXPECT_THROW(b.deserialize(state), std::out_of_range);
}

TEST(Rng, DeserializeRejectsBadVersion) {
  Rng a(1);
  Bytes state = a.serialize();
  state[0] = 0xFF;
  EXPECT_THROW(a.deserialize(state), std::runtime_error);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 7.5);
  }
}

TEST(Rng, UniformU64Bounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_LT(rng.uniform_u64(13), 13u);
  }
  EXPECT_EQ(rng.uniform_u64(1), 0u);
  EXPECT_THROW(rng.uniform_u64(0), std::invalid_argument);
}

TEST(Rng, UniformU64CoversAllResidues) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.uniform_u64(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.normal());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, NormalWithMeanAndStddev) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.normal(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleIsDeterministicGivenState) {
  Rng a(11), b(11);
  std::vector<int> va{1, 2, 3, 4, 5}, vb{1, 2, 3, 4, 5};
  a.shuffle(va);
  b.shuffle(vb);
  EXPECT_EQ(va, vb);
}

TEST(Rng, ReseedResetsNormalCache) {
  Rng rng(12);
  rng.normal();
  rng.reseed(12);
  Rng fresh(12);
  EXPECT_EQ(rng, fresh);
}

TEST(Splitmix64, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const std::uint64_t first = splitmix64(s);
  const std::uint64_t second = splitmix64(s);
  EXPECT_NE(first, second);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), first);
}

// ---------- CRC ----------

TEST(Crc32c, KnownVector) {
  // "123456789" -> 0xE3069283 (CRC-32C check value).
  const std::string s = "123456789";
  const auto crc = crc32c(
      {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  EXPECT_EQ(crc, 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c({}), 0u); }

TEST(Crc32c, Composable) {
  Bytes all;
  for (int i = 0; i < 1000; ++i) {
    all.push_back(static_cast<std::uint8_t>(i * 37));
  }
  for (std::size_t cut : {0ul, 1ul, 7ul, 8ul, 9ul, 500ul, 999ul, 1000ul}) {
    const auto part1 = crc32c(ByteSpan(all).first(cut));
    const auto combined = crc32c(ByteSpan(all).subspan(cut), part1);
    ASSERT_EQ(combined, crc32c(all)) << "cut=" << cut;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  Bytes data(64, 0xAB);
  const auto base = crc32c(data);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
    ASSERT_NE(crc32c(data), base) << "bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
  }
}

TEST(Crc32c, IncrementalAccumulatorMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 333; ++i) {
    data.push_back(static_cast<std::uint8_t>(i));
  }
  Crc32c acc;
  acc.update(ByteSpan(data).first(100));
  acc.update(ByteSpan(data).subspan(100));
  EXPECT_EQ(acc.value(), crc32c(data));
}

TEST(Crc64, DetectsCorruptionAndTruncation) {
  Bytes data(128, 0x5C);
  const auto base = crc64(data);
  data[64] ^= 1;
  EXPECT_NE(crc64(data), base);
  data[64] ^= 1;
  EXPECT_NE(crc64(ByteSpan(data).first(127)), base);
  EXPECT_EQ(crc64(data), base);
}

// ---------- varint ----------

TEST(Varint, RoundTripSweep) {
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 255, 300, 16383, 16384,
                                       (1ull << 32) - 1, 1ull << 32,
                                       ~0ull, ~0ull - 1};
  for (int shift = 0; shift < 64; ++shift) {
    values.push_back(1ull << shift);
  }
  Bytes buf;
  for (std::uint64_t v : values) {
    put_varint(buf, v);
  }
  std::size_t off = 0;
  for (std::uint64_t v : values) {
    ASSERT_EQ(get_varint(buf, off), v);
  }
  EXPECT_EQ(off, buf.size());
}

TEST(Varint, SmallValuesOneByte) {
  Bytes buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Varint, TruncationThrows) {
  Bytes buf;
  put_varint(buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  std::size_t off = 0;
  EXPECT_THROW(get_varint(buf, off), std::out_of_range);
}

TEST(Varint, OverlongEncodingThrows) {
  Bytes buf(11, 0x80);  // 11 continuation bytes, never terminates
  std::size_t off = 0;
  EXPECT_THROW(get_varint(buf, off), std::runtime_error);
}

TEST(Varint, ZigzagRoundTrip) {
  const std::vector<std::int64_t> cases{
      0, 1, -1, 2, -2, 1000000, -1000000,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  for (std::int64_t v : cases) {
    ASSERT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(Varint, ZigzagSmallMagnitudesEncodeSmall) {
  Bytes buf;
  put_svarint(buf, -3);
  EXPECT_EQ(buf.size(), 1u);
  std::size_t off = 0;
  EXPECT_EQ(get_svarint(buf, off), -3);
}

// ---------- bytes ----------

TEST(Bytes, PutGetLeRoundTrip) {
  Bytes buf;
  put_le<std::uint8_t>(buf, 0xAB);
  put_le<std::uint16_t>(buf, 0xCDEF);
  put_le<std::uint32_t>(buf, 0x12345678u);
  put_le<std::uint64_t>(buf, 0x1122334455667788ull);
  put_le<double>(buf, 3.14159);
  std::size_t off = 0;
  EXPECT_EQ(get_le<std::uint8_t>(buf, off), 0xAB);
  EXPECT_EQ(get_le<std::uint16_t>(buf, off), 0xCDEF);
  EXPECT_EQ(get_le<std::uint32_t>(buf, off), 0x12345678u);
  EXPECT_EQ(get_le<std::uint64_t>(buf, off), 0x1122334455667788ull);
  EXPECT_DOUBLE_EQ(get_le<double>(buf, off), 3.14159);
  EXPECT_EQ(off, buf.size());
}

TEST(Bytes, GetLeUnderrunThrows) {
  Bytes buf{1, 2, 3};
  std::size_t off = 0;
  EXPECT_THROW(get_le<std::uint32_t>(buf, off), std::out_of_range);
}

TEST(Bytes, LittleEndianLayout) {
  Bytes buf;
  put_le<std::uint32_t>(buf, 0x01020304u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(Bytes, StringAndVectorRoundTrip) {
  Bytes buf;
  put_string(buf, "hello world");
  put_vector<double>(buf, {1.0, -2.5, 1e300});
  put_bytes(buf, Bytes{9, 8, 7});
  std::size_t off = 0;
  EXPECT_EQ(get_string(buf, off), "hello world");
  EXPECT_EQ(get_vector<double>(buf, off),
            (std::vector<double>{1.0, -2.5, 1e300}));
  EXPECT_EQ(get_bytes(buf, off), (Bytes{9, 8, 7}));
}

TEST(Bytes, EmptyStringAndVector) {
  Bytes buf;
  put_string(buf, "");
  put_vector<std::uint32_t>(buf, {});
  std::size_t off = 0;
  EXPECT_EQ(get_string(buf, off), "");
  EXPECT_TRUE(get_vector<std::uint32_t>(buf, off).empty());
}

TEST(Bytes, VectorUnderrunThrows) {
  Bytes buf;
  put_le<std::uint64_t>(buf, 100);  // claims 100 elements, provides none
  std::size_t off = 0;
  EXPECT_THROW(get_vector<double>(buf, off), std::out_of_range);
}

TEST(Bytes, CountsNearTwoToTheSixtyFourUnderrunInsteadOfWrapping) {
  // offset + n (n scaled by the element size) must not wrap past the
  // buffer end: each count is an underrun, never an allocation attempt.
  for (const std::uint64_t n :
       {~std::uint64_t{0}, (std::uint64_t{1} << 61) + 1}) {
    Bytes buf;
    put_le<std::uint64_t>(buf, n);
    buf.resize(buf.size() + 16, 0);  // a few real bytes behind the count
    std::size_t off = 0;
    EXPECT_THROW(get_bytes(buf, off), std::out_of_range) << n;
    off = 0;
    EXPECT_THROW(get_string(buf, off), std::out_of_range) << n;
    off = 0;
    EXPECT_THROW(get_vector<double>(buf, off), std::out_of_range) << n;
    off = 0;
    EXPECT_THROW(get_vector<std::uint32_t>(buf, off), std::out_of_range) << n;
  }
}

// ---------- strings ----------

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("nospace"), "nospace");
}

TEST(Strings, HexRoundTrip) {
  const Bytes data{0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(data), "00deadbeefff");
  EXPECT_EQ(from_hex("00deadbeefff"), std::vector<std::uint8_t>(data));
  EXPECT_EQ(from_hex("DEADBEEF"), from_hex("deadbeef"));
}

TEST(Strings, FromHexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(0), "0 B");
  EXPECT_EQ(human_bytes(1023), "1023 B");
  EXPECT_EQ(human_bytes(1024), "1.0 KiB");
  EXPECT_EQ(human_bytes(1536), "1.5 KiB");
  EXPECT_EQ(human_bytes(3ull << 20), "3.0 MiB");
}

// ---------- stats ----------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

}  // namespace
}  // namespace qnn::util
