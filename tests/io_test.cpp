// Unit tests for qnn::io — the handle-based Env contract across EVERY
// implementation (Posix, Mem, Fault, CrashSchedule, Prefix, Tiered,
// Shaped, Observed), plus the fault/crash decorators' own semantics.
#include <gtest/gtest.h>

#include <filesystem>

#include "io/env.hpp"
#include "io/fault_env.hpp"
#include "io/mem_env.hpp"
#include "io/prefix_env.hpp"
#include "obs/metrics.hpp"
#include "obs/observed_env.hpp"
#include "tier/shaped_env.hpp"
#include "tier/tiered_env.hpp"

namespace qnn::io {
namespace {

namespace fs = std::filesystem;

Bytes bytes_of(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

/// Shared conformance suite run against every Env implementation: the
/// decorators are instantiated in pass-through configurations (no
/// faults armed, no crash scheduled, a free device model) so the
/// CONTRACT — streamed write -> pread roundtrip, atomic visibility,
/// byte accounting on ranged ops — is what varies, not the behavior.
class EnvConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    const std::string& kind = GetParam();
    if (kind == "posix") {
      root_ = (fs::temp_directory_path() /
               ("qnnckpt_io_test_" + std::to_string(::getpid())))
                  .string();
      fs::remove_all(root_);
      posix_ = std::make_unique<PosixEnv>(/*durable=*/false);
      env_ = posix_.get();
      return;
    }
    root_ = "mem";
    mem_ = std::make_unique<MemEnv>();
    if (kind == "mem") {
      env_ = mem_.get();
    } else if (kind == "fault") {
      fault_ = std::make_unique<FaultEnv>(*mem_, FaultSpec{});
      env_ = fault_.get();
    } else if (kind == "crash") {
      crash_ = std::make_unique<CrashScheduleEnv>(*mem_, CrashPlan{});
      env_ = crash_.get();
    } else if (kind == "prefix") {
      prefix_ = std::make_unique<PrefixEnv>(*mem_, "mnt");
      env_ = prefix_.get();
    } else if (kind == "tiered") {
      hot_mount_ = std::make_unique<PrefixEnv>(*mem_, "hot");
      cold_mount_ = std::make_unique<PrefixEnv>(*mem_, "cold");
      tiered_ = std::make_unique<tier::TieredEnv>(*hot_mount_, *cold_mount_);
      env_ = tiered_.get();
    } else if (kind == "shaped") {
      shaped_ = std::make_unique<tier::ShapedEnv>(*mem_, tier::ShapeSpec{});
      env_ = shaped_.get();
    } else if (kind == "observed") {
      registry_ = std::make_unique<obs::MetricsRegistry>();
      observed_ = std::make_unique<obs::ObservedEnv>(*mem_, *registry_);
      env_ = observed_.get();
    } else {
      FAIL() << "unknown env kind " << kind;
    }
  }

  void TearDown() override {
    if (GetParam() == "posix") {
      fs::remove_all(root_);
    }
  }

  std::string path(const std::string& name) const { return root_ + "/" + name; }

  std::string root_;
  Env* env_ = nullptr;
  std::unique_ptr<PosixEnv> posix_;
  std::unique_ptr<MemEnv> mem_;
  std::unique_ptr<FaultEnv> fault_;
  std::unique_ptr<CrashScheduleEnv> crash_;
  std::unique_ptr<PrefixEnv> prefix_;
  std::unique_ptr<PrefixEnv> hot_mount_;
  std::unique_ptr<PrefixEnv> cold_mount_;
  std::unique_ptr<tier::TieredEnv> tiered_;
  std::unique_ptr<tier::ShapedEnv> shaped_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::ObservedEnv> observed_;
};

TEST_P(EnvConformanceTest, ReadMissingReturnsNullopt) {
  EXPECT_FALSE(env_->read_file(path("nope")).has_value());
  EXPECT_FALSE(env_->exists(path("nope")));
  EXPECT_FALSE(env_->file_size(path("nope")).has_value());
}

TEST_P(EnvConformanceTest, AtomicWriteThenRead) {
  env_->write_file_atomic(path("a.bin"), bytes_of("hello"));
  const auto back = env_->read_file(path("a.bin"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes_of("hello"));
  EXPECT_TRUE(env_->exists(path("a.bin")));
  EXPECT_EQ(env_->file_size(path("a.bin")).value(), 5u);
}

TEST_P(EnvConformanceTest, AtomicWriteOverwrites) {
  env_->write_file_atomic(path("a"), bytes_of("first"));
  env_->write_file_atomic(path("a"), bytes_of("second!"));
  EXPECT_EQ(*env_->read_file(path("a")), bytes_of("second!"));
}

TEST_P(EnvConformanceTest, PlainWriteWorks) {
  env_->write_file(path("b"), bytes_of("plain"));
  EXPECT_EQ(*env_->read_file(path("b")), bytes_of("plain"));
}

TEST_P(EnvConformanceTest, EmptyFile) {
  env_->write_file_atomic(path("empty"), {});
  const auto back = env_->read_file(path("empty"));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST_P(EnvConformanceTest, RemoveFile) {
  env_->write_file_atomic(path("gone"), bytes_of("x"));
  env_->remove_file(path("gone"));
  EXPECT_FALSE(env_->exists(path("gone")));
  env_->remove_file(path("gone"));  // idempotent
}

TEST_P(EnvConformanceTest, ListDirSortedFileNames) {
  env_->write_file_atomic(path("c.txt"), bytes_of("3"));
  env_->write_file_atomic(path("a.txt"), bytes_of("1"));
  env_->write_file_atomic(path("b.txt"), bytes_of("2"));
  EXPECT_EQ(env_->list_dir(root_),
            (std::vector<std::string>{"a.txt", "b.txt", "c.txt"}));
}

TEST_P(EnvConformanceTest, ListMissingDirIsEmpty) {
  EXPECT_TRUE(env_->list_dir(root_ + "/does-not-exist").empty());
}

TEST_P(EnvConformanceTest, BytesWrittenAccounting) {
  const auto before = env_->bytes_written();
  env_->write_file_atomic(path("x"), bytes_of("12345"));
  env_->write_file(path("y"), bytes_of("123"));
  EXPECT_EQ(env_->bytes_written() - before, 8u);
}

TEST_P(EnvConformanceTest, LargePayloadRoundTrip) {
  Bytes big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  env_->write_file_atomic(path("big"), big);
  EXPECT_EQ(*env_->read_file(path("big")), big);
}

// ---------- streaming handles ----------

TEST_P(EnvConformanceTest, StreamedWriteThenPreadRoundTrip) {
  auto out = env_->new_writable(path("s"), WriteMode::kAtomic);
  out->append(bytes_of("hello "));
  out->append(bytes_of("streamed "));
  out->append(bytes_of("world"));
  out->close();

  auto in = env_->open_ranged(path("s"));
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(in->size(), 20u);
  EXPECT_EQ(in->pread(0, 20), bytes_of("hello streamed world"));
  EXPECT_EQ(in->pread(6, 8), bytes_of("streamed"));
  EXPECT_EQ(in->pread(15, 100), bytes_of("world"));  // short at EOF
  EXPECT_TRUE(in->pread(20, 4).empty());             // past EOF
}

TEST_P(EnvConformanceTest, AtomicStreamInvisibleUntilClose) {
  auto out = env_->new_writable(path("staged"), WriteMode::kAtomic);
  out->append(bytes_of("partial"));
  EXPECT_FALSE(env_->exists(path("staged")))
      << "atomic stream became visible before close";
  EXPECT_EQ(env_->open_ranged(path("staged")), nullptr);
  out->close();
  EXPECT_EQ(*env_->read_file(path("staged")), bytes_of("partial"));
}

TEST_P(EnvConformanceTest, AbortedAtomicStreamLeavesNothing) {
  {
    auto out = env_->new_writable(path("aborted"), WriteMode::kAtomic);
    out->append(bytes_of("doomed bytes"));
    // Destroyed without close(): the install must not happen.
  }
  EXPECT_FALSE(env_->exists(path("aborted")));
}

TEST_P(EnvConformanceTest, PlainStreamAppendsAndSyncs) {
  auto out = env_->new_writable(path("plain"), WriteMode::kPlain);
  out->append(bytes_of("a"));
  out->sync();
  out->append(bytes_of("bc"));
  out->close();
  EXPECT_EQ(*env_->read_file(path("plain")), bytes_of("abc"));
}

TEST_P(EnvConformanceTest, PlainStreamTruncatesPreviousContent) {
  env_->write_file_atomic(path("t"), bytes_of("old old old"));
  auto out = env_->new_writable(path("t"), WriteMode::kPlain);
  out->append(bytes_of("new"));
  out->close();
  EXPECT_EQ(*env_->read_file(path("t")), bytes_of("new"));
}

TEST_P(EnvConformanceTest, RangedReadSnapshotSurvivesAtomicOverwrite) {
  env_->write_file_atomic(path("snap"), bytes_of("first version"));
  auto in = env_->open_ranged(path("snap"));
  ASSERT_NE(in, nullptr);
  env_->write_file_atomic(path("snap"), bytes_of("second"));
  // POSIX open-file / snapshot semantics: the open handle still serves
  // the bytes it was opened on — an overwrite never tears a reader.
  EXPECT_EQ(in->pread(0, 5), bytes_of("first"));
  EXPECT_EQ(*env_->read_file(path("snap")), bytes_of("second"));
}

TEST_P(EnvConformanceTest, BytesReadCountsOnlyRangesReturned) {
  Bytes big(4096);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  env_->write_file_atomic(path("ranged"), big);
  const std::uint64_t before = env_->bytes_read();
  auto in = env_->open_ranged(path("ranged"));
  ASSERT_NE(in, nullptr);
  (void)in->pread(0, 100);
  (void)in->pread(1000, 28);
  (void)in->pread(4090, 100);  // returns 6
  EXPECT_EQ(env_->bytes_read() - before, 100u + 28u + 6u)
      << "ranged reads must charge exactly the ranges they return";
}

TEST_P(EnvConformanceTest, BytesWrittenCountsStreamedAppends) {
  const std::uint64_t before = env_->bytes_written();
  auto out = env_->new_writable(path("w"), WriteMode::kAtomic);
  out->append(bytes_of("12345"));
  out->append(bytes_of("678"));
  out->close();
  EXPECT_EQ(env_->bytes_written() - before, 8u);
}

INSTANTIATE_TEST_SUITE_P(AllEnvs, EnvConformanceTest,
                         ::testing::Values("posix", "mem", "fault", "crash",
                                           "prefix", "tiered", "shaped",
                                           "observed"),
                         [](const auto& info) { return info.param; });

// ---------- PosixEnv specifics ----------

TEST(PosixEnv, NoTmpFileLeftBehindAfterAtomicWrite) {
  const std::string root =
      (fs::temp_directory_path() / "qnnckpt_posix_tmp").string();
  fs::remove_all(root);
  PosixEnv env(false);
  env.write_file_atomic(root + "/f.bin", bytes_of("payload"));
  EXPECT_EQ(env.list_dir(root), std::vector<std::string>{"f.bin"});
  fs::remove_all(root);
}

TEST(PosixEnv, CreatesNestedParentDirectories) {
  const std::string root =
      (fs::temp_directory_path() / "qnnckpt_posix_nested").string();
  fs::remove_all(root);
  PosixEnv env(false);
  env.write_file_atomic(root + "/a/b/c/deep.bin", bytes_of("d"));
  EXPECT_TRUE(env.exists(root + "/a/b/c/deep.bin"));
  fs::remove_all(root);
}

TEST(PosixEnv, DurableStreamsReadBackExactlyAcrossWriteback) {
  // 3 MiB and a tail in 64 KiB appends: a durable handle starts the
  // writeback of each MiB it has appended, three times per stream here.
  // Neither mode's bytes, count or visibility changes, and an abandoned
  // atomic stream still leaves nothing.
  const std::string root =
      (fs::temp_directory_path() / "qnnckpt_posix_writeback").string();
  fs::remove_all(root);
  PosixEnv env(/*durable=*/true);
  Bytes data((std::size_t{3} << 20) + 1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + i / 4096);
  }
  const auto stream = [&](WritableFile& out) {
    constexpr std::size_t kAppend = std::size_t{64} << 10;
    for (std::size_t off = 0; off < data.size(); off += kAppend) {
      out.append(ByteSpan(data).subspan(
          off, std::min(kAppend, data.size() - off)));
    }
  };
  for (const auto& [name, mode] :
       {std::pair{"atomic", WriteMode::kAtomic},
        std::pair{"plain", WriteMode::kPlain}}) {
    const std::uint64_t before = env.bytes_written();
    auto out = env.new_writable(root + "/" + name, mode);
    stream(*out);
    out->close();
    EXPECT_EQ(env.bytes_written() - before, data.size()) << name;
    EXPECT_EQ(env.read_file(root + "/" + name), data) << name;
  }
  {
    const std::uint64_t before = env.bytes_written();
    auto abandoned =
        env.new_writable(root + "/abandoned", WriteMode::kAtomic);
    stream(*abandoned);
    abandoned.reset();
    EXPECT_EQ(env.bytes_written(), before);
  }
  EXPECT_EQ(env.list_dir(root), (std::vector<std::string>{"atomic", "plain"}));
  fs::remove_all(root);
}

// ---------- MemEnv specifics ----------

TEST(MemEnv, FlipBitCorruptsExactlyOneBit) {
  MemEnv env;
  env.write_file_atomic("f", Bytes{0x00, 0x00});
  ASSERT_TRUE(env.flip_bit("f", 9));
  EXPECT_EQ(*env.read_file("f"), (Bytes{0x00, 0x02}));
  ASSERT_TRUE(env.flip_bit("f", 9));  // flips back
  EXPECT_EQ(*env.read_file("f"), (Bytes{0x00, 0x00}));
}

TEST(MemEnv, FlipBitOnMissingOrEmptyFails) {
  MemEnv env;
  EXPECT_FALSE(env.flip_bit("missing", 0));
  env.write_file_atomic("empty", {});
  EXPECT_FALSE(env.flip_bit("empty", 0));
}

TEST(MemEnv, TruncateShortens) {
  MemEnv env;
  env.write_file_atomic("f", bytes_of("0123456789"));
  ASSERT_TRUE(env.truncate("f", 4));
  EXPECT_EQ(*env.read_file("f"), bytes_of("0123"));
  ASSERT_TRUE(env.truncate("f", 100));  // no-op growth
  EXPECT_EQ(env.file_size("f").value(), 4u);
  EXPECT_FALSE(env.truncate("missing", 0));
}

TEST(MemEnv, ListDirDoesNotRecurse) {
  MemEnv env;
  env.write_file_atomic("dir/a", bytes_of("1"));
  env.write_file_atomic("dir/sub/b", bytes_of("2"));
  EXPECT_EQ(env.list_dir("dir"), std::vector<std::string>{"a"});
}

// ---------- FaultEnv ----------

TEST(FaultEnv, NoFaultsPassThrough) {
  MemEnv base;
  FaultEnv env(base, FaultSpec{});
  env.write_file("f", bytes_of("abc"));
  EXPECT_EQ(*env.read_file("f"), bytes_of("abc"));
  EXPECT_EQ(env.faults_injected(), 0u);
}

TEST(FaultEnv, TornWriteTruncates) {
  MemEnv base;
  FaultSpec spec;
  spec.torn_write_prob = 1.0;
  FaultEnv env(base, spec, /*seed=*/1);
  env.write_file("f", bytes_of("0123456789"));
  EXPECT_LT(env.file_size("f").value(), 10u);
  EXPECT_GE(env.faults_injected(), 1u);
}

TEST(FaultEnv, BitFlipKeepsLength) {
  MemEnv base;
  FaultSpec spec;
  spec.bit_flip_prob = 1.0;
  FaultEnv env(base, spec, 2);
  const Bytes payload(64, 0xAA);
  env.write_file("f", payload);
  const auto got = *env.read_file("f");
  ASSERT_EQ(got.size(), payload.size());
  int diff_bits = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    diff_bits += std::popcount(static_cast<unsigned>(got[i] ^ payload[i]));
  }
  EXPECT_EQ(diff_bits, 1);
}

TEST(FaultEnv, CrashThrowsAfterTornWrite) {
  MemEnv base;
  FaultSpec spec;
  spec.torn_write_prob = 1.0;
  spec.crash_prob = 1.0;
  FaultEnv env(base, spec, 3);
  EXPECT_THROW(env.write_file("f", bytes_of("payload")), WriteCrash);
  EXPECT_TRUE(env.exists("f"));  // partial file was left behind
}

TEST(FaultEnv, AtomicWritesProtectedByDefault) {
  MemEnv base;
  FaultSpec spec;
  spec.torn_write_prob = 1.0;
  FaultEnv env(base, spec, 4);
  env.write_file_atomic("f", bytes_of("0123456789"));
  EXPECT_EQ(env.file_size("f").value(), 10u);  // untouched
}

TEST(FaultEnv, FaultAtomicWritesFlagEnablesInjection) {
  MemEnv base;
  FaultSpec spec;
  spec.torn_write_prob = 1.0;
  spec.fault_atomic_writes = true;
  FaultEnv env(base, spec, 5);
  env.write_file_atomic("f", bytes_of("0123456789"));
  EXPECT_LT(env.file_size("f").value(), 10u);
}

TEST(FaultEnv, DeterministicGivenSeed) {
  MemEnv base1, base2;
  FaultSpec spec;
  spec.torn_write_prob = 0.5;
  spec.bit_flip_prob = 0.5;
  FaultEnv env1(base1, spec, 77), env2(base2, spec, 77);
  for (int i = 0; i < 20; ++i) {
    const std::string name = std::string("f").append(std::to_string(i));
    env1.write_file(name, Bytes(32, 0x11));
    env2.write_file(name, Bytes(32, 0x11));
    ASSERT_EQ(*base1.read_file(name), *base2.read_file(name)) << name;
  }
}

// ---------- deterministic crash schedules ----------

TEST(CrashScheduleEnv, NoPlanCountsOpsAndPassesThrough) {
  MemEnv base;
  CrashScheduleEnv env(base, CrashPlan{});
  env.write_file_atomic("a", bytes_of("one"));
  env.write_file("b", bytes_of("two"));
  env.remove_file("a");
  EXPECT_EQ(env.mutating_ops(), 3u);
  EXPECT_FALSE(env.crashed());
  EXPECT_FALSE(base.exists("a"));
  EXPECT_EQ(*base.read_file("b"), bytes_of("two"));
  // Reads are not mutating ops.
  env.read_file("b");
  env.list_dir("");
  EXPECT_EQ(env.mutating_ops(), 3u);
}

TEST(CrashScheduleEnv, AtomicWriteIsAllOrNothingAtCrash) {
  {
    MemEnv base;
    CrashScheduleEnv env(base, {.crash_at_op = 1, .durable_bytes = 2});
    EXPECT_THROW(env.write_file_atomic("f", bytes_of("payload")),
                 ScheduledCrash);
    EXPECT_FALSE(base.exists("f")) << "partial atomic write must not install";
  }
  {
    MemEnv base;
    CrashScheduleEnv env(base, {.crash_at_op = 1, .durable_bytes = kOpDurable});
    EXPECT_THROW(env.write_file_atomic("f", bytes_of("payload")),
                 ScheduledCrash);
    EXPECT_EQ(*base.read_file("f"), bytes_of("payload"));
  }
}

TEST(CrashScheduleEnv, PlainWriteTearsAtByteOffset) {
  MemEnv base;
  CrashScheduleEnv env(base, {.crash_at_op = 1, .durable_bytes = 3});
  EXPECT_THROW(env.write_file("f", bytes_of("payload")), ScheduledCrash);
  EXPECT_EQ(*base.read_file("f"), bytes_of("pay"));
}

TEST(CrashScheduleEnv, RemoveBeforeOrAfterEffect) {
  {
    MemEnv base;
    base.write_file("f", bytes_of("x"));
    CrashScheduleEnv env(base, {.crash_at_op = 1, .durable_bytes = 0});
    EXPECT_THROW(env.remove_file("f"), ScheduledCrash);
    EXPECT_TRUE(base.exists("f"));
  }
  {
    MemEnv base;
    base.write_file("f", bytes_of("x"));
    CrashScheduleEnv env(base, {.crash_at_op = 1, .durable_bytes = 1});
    EXPECT_THROW(env.remove_file("f"), ScheduledCrash);
    EXPECT_FALSE(base.exists("f"));
  }
}

TEST(CrashScheduleEnv, DeadAfterCrashEvenForReads) {
  MemEnv base;
  CrashScheduleEnv env(base, {.crash_at_op = 2, .durable_bytes = 0});
  env.write_file("a", bytes_of("1"));
  EXPECT_THROW(env.write_file("b", bytes_of("2")), ScheduledCrash);
  EXPECT_TRUE(env.crashed());
  EXPECT_THROW(env.read_file("a"), ScheduledCrash);
  EXPECT_THROW(env.write_file("c", bytes_of("3")), ScheduledCrash);
  EXPECT_THROW(env.list_dir(""), ScheduledCrash);
}

TEST(CrashScheduleEnv, PlainStreamAppendsAreMutatingOps) {
  MemEnv base;
  CrashScheduleEnv env(base, CrashPlan{});
  auto plain = env.new_writable("log", WriteMode::kPlain);
  plain->append(bytes_of("a"));
  plain->append(bytes_of("b"));
  plain->append(bytes_of("c"));
  plain->close();
  EXPECT_EQ(env.mutating_ops(), 3u) << "each plain append is one op";
  // An atomic stream mutates once — at the install (close).
  auto atomic = env.new_writable("blob", WriteMode::kAtomic);
  atomic->append(bytes_of("xx"));
  atomic->append(bytes_of("yy"));
  atomic->close();
  EXPECT_EQ(env.mutating_ops(), 4u) << "atomic staging appends never mutate";
}

TEST(CrashScheduleEnv, TornAppendKeepsPriorAppendsPlusPrefix) {
  MemEnv base;
  CrashScheduleEnv env(base, {.crash_at_op = 2, .durable_bytes = 2});
  auto out = env.new_writable("log", WriteMode::kPlain);
  out->append(bytes_of("aaaa"));  // op 1: durable in full
  EXPECT_THROW(out->append(bytes_of("bbbb")), ScheduledCrash);  // op 2: torn
  EXPECT_EQ(*base.read_file("log"), bytes_of("aaaabb"))
      << "the tear lands at an arbitrary byte offset WITHIN the append";
  // The process is dead: the open handle refuses everything after.
  EXPECT_THROW(out->append(bytes_of("cccc")), ScheduledCrash);
  EXPECT_THROW(out->close(), ScheduledCrash);
}

TEST(CrashScheduleEnv, TornAppendAtBoundaryLeavesWholeAppendsOnly) {
  MemEnv base;
  CrashScheduleEnv env(base, {.crash_at_op = 3, .durable_bytes = 0});
  auto out = env.new_writable("log", WriteMode::kPlain);
  out->append(bytes_of("1111"));
  out->append(bytes_of("2222"));
  EXPECT_THROW(out->append(bytes_of("3333")), ScheduledCrash);
  EXPECT_EQ(*base.read_file("log"), bytes_of("11112222"))
      << "durable_bytes = 0 tears exactly at the previous append boundary";
}

TEST(CrashScheduleEnv, ZeroByteAppendTicksAsMutatingOp) {
  MemEnv base;
  CrashScheduleEnv env(base, CrashPlan{});
  auto out = env.new_writable("log", WriteMode::kPlain);
  out->append(Bytes{});
  EXPECT_EQ(env.mutating_ops(), 1u)
      << "an empty append is still a device op the schedule must count";
  out->append(bytes_of("aa"));
  out->append(Bytes{});
  out->close();
  EXPECT_EQ(env.mutating_ops(), 3u);
  EXPECT_EQ(*base.read_file("log"), bytes_of("aa"));
}

TEST(CrashScheduleEnv, CrashOnZeroByteAppendLeavesPriorBytesExactly) {
  MemEnv base;
  CrashScheduleEnv env(base, {.crash_at_op = 2, .durable_bytes = 3});
  auto out = env.new_writable("log", WriteMode::kPlain);
  out->append(bytes_of("aaaa"));
  // durable_bytes exceeds the append's size; the on-disk result is
  // still well-defined — nothing of a zero-byte append can land.
  EXPECT_THROW(out->append(Bytes{}), ScheduledCrash);
  EXPECT_EQ(*base.read_file("log"), bytes_of("aaaa"));
}

TEST(CrashScheduleEnv, FirstAppendTornAtOffsetZeroLeavesEmptyFile) {
  MemEnv base;
  CrashScheduleEnv env(base, {.crash_at_op = 1, .durable_bytes = 0});
  auto out = env.new_writable("log", WriteMode::kPlain);
  EXPECT_THROW(out->append(bytes_of("aaaa")), ScheduledCrash);
  ASSERT_TRUE(base.exists("log"))
      << "kPlain publishes the (empty) file at open, before any append";
  EXPECT_EQ(base.read_file("log")->size(), 0u);
}

TEST(CrashScheduleEnv, AtomicStreamAllOrNothingAtClose) {
  {
    MemEnv base;
    CrashScheduleEnv env(base, {.crash_at_op = 1, .durable_bytes = 3});
    auto out = env.new_writable("f", WriteMode::kAtomic);
    out->append(bytes_of("pay"));
    out->append(bytes_of("load"));
    EXPECT_THROW(out->close(), ScheduledCrash);
    EXPECT_FALSE(base.exists("f"))
        << "a partially-durable atomic stream must not install";
  }
  {
    MemEnv base;
    CrashScheduleEnv env(base, {.crash_at_op = 1, .durable_bytes = kOpDurable});
    auto out = env.new_writable("f", WriteMode::kAtomic);
    out->append(bytes_of("pay"));
    out->append(bytes_of("load"));
    EXPECT_THROW(out->close(), ScheduledCrash);
    EXPECT_EQ(*base.read_file("f"), bytes_of("payload"));
  }
}

TEST(CrashScheduleEnv, OpenHandleReadsDieWithTheProcess) {
  MemEnv base;
  base.write_file("f", bytes_of("content"));
  CrashScheduleEnv env(base, {.crash_at_op = 1, .durable_bytes = 0});
  auto in = env.open_ranged("f");
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(in->pread(0, 3), bytes_of("con"));
  EXPECT_THROW(env.write_file("g", bytes_of("x")), ScheduledCrash);
  EXPECT_THROW(in->pread(0, 3), ScheduledCrash)
      << "a dead process performs no further I/O, open handles included";
}

TEST(CrashScheduleEnv, EnumeratedTornAppendSchedulesCoverEveryBoundary) {
  // A mini streamed-log scenario: every (append K, byte offset B) crash
  // point must leave a file that is a prefix of the full stream and at
  // least as long as the appends completed before the crash.
  const Bytes full = bytes_of("aaaabbbbcccc");
  std::uint64_t torn_midpoints = 0;
  const auto result = enumerate_crash_schedules(
      [] { return std::make_unique<MemEnv>(); },
      [](CrashScheduleEnv& env) {
        auto out = env.new_writable("log", WriteMode::kPlain);
        out->append(bytes_of("aaaa"));
        out->append(bytes_of("bbbb"));
        out->append(bytes_of("cccc"));
        out->close();
      },
      [&](Env& base, const CrashPlan& plan) {
        const auto data = base.read_file("log");
        const Bytes got = data.value_or(Bytes{});
        ASSERT_LE(got.size(), full.size());
        EXPECT_TRUE(std::equal(got.begin(), got.end(), full.begin()))
            << "torn stream must be a prefix, op " << plan.crash_at_op;
        if (plan.crash_at_op > 0) {
          EXPECT_GE(got.size(), (plan.crash_at_op - 1) * 4)
              << "appends before the crash op are durable";
        }
        if (got.size() % 4 == 2) {
          ++torn_midpoints;  // a tear INSIDE an append actually happened
        }
      },
      /*stride=*/1, /*durable_offsets=*/{0, 2, kOpDurable});
  EXPECT_EQ(result.total_ops, 3u);
  EXPECT_EQ(result.points_run, 9u);  // 3 appends x 3 offsets
  EXPECT_EQ(torn_midpoints, 3u);
}

TEST(CrashScheduleEnv, EnumeratorVisitsEveryOpTimesEveryOffset) {
  std::uint64_t verified = 0;
  const auto result = enumerate_crash_schedules(
      [] { return std::make_unique<MemEnv>(); },
      [](CrashScheduleEnv& env) {
        env.write_file_atomic("a", bytes_of("aa"));
        env.write_file_atomic("b", bytes_of("bb"));
        env.remove_file("a");
      },
      [&verified](Env& base, const CrashPlan& plan) {
        ++verified;
        // Regardless of the crash point, "b exists implies it is intact".
        if (base.exists("b")) {
          EXPECT_EQ(*base.read_file("b"), bytes_of("bb")) << plan.crash_at_op;
        }
      },
      /*stride=*/1, /*durable_offsets=*/{0, kOpDurable});
  EXPECT_EQ(result.total_ops, 3u);
  EXPECT_EQ(result.points_run, 6u);  // 3 ops x 2 offsets
  EXPECT_EQ(verified, 7u);           // + the probe run
}

}  // namespace
}  // namespace qnn::io
