// Tiered storage: TieredEnv composition, ShapedEnv device models,
// PrefixEnv mounts, Env::bytes_read accounting, and the MigrationEngine's
// policy-driven, crash-consistent hot->cold placement (the exhaustive
// crash enumeration lives in crash_matrix_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ckpt/checkpointer.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/store.hpp"
#include "ckpt/verify.hpp"
#include "io/mem_env.hpp"
#include "io/prefix_env.hpp"
#include "tier/migration.hpp"
#include "tier/shaped_env.hpp"
#include "tier/tiered_env.hpp"
#include "util/rng.hpp"

namespace qnn {
namespace {

using ckpt::CheckpointPolicy;
using ckpt::Checkpointer;
using ckpt::Manifest;
using tier::MigrationEngine;
using tier::ShapedEnv;
using tier::ShapeSpec;
using tier::TieredEnv;

util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

/// Deterministic training state: a mostly-frozen parameter vector (only
/// the last 4 values move with the step) so consecutive checkpoints
/// share chunks, plus enough metadata to round-trip.
qnn::TrainingState make_state(std::uint64_t step, std::size_t params = 512) {
  qnn::TrainingState s;
  s.step = step;
  s.params.resize(params);
  util::Rng frozen(7);
  for (double& p : s.params) {
    p = frozen.uniform(-1.0, 1.0);
  }
  util::Rng moving(100 + step);
  for (std::size_t i = params - 4; i < params; ++i) {
    s.params[i] = moving.uniform(-1.0, 1.0);
  }
  s.optimizer_name = "adam";
  s.optimizer_state.assign(128, static_cast<std::uint8_t>(step));
  s.rng_state = util::Rng(step).serialize();
  s.loss_history.assign(step, 0.5);
  s.epoch = step / 4;
  s.cursor = step % 4;
  s.permutation = {0, 1, 2};
  s.workload_tag = "vqe";
  return s;
}

/// Dir-relative names of the checkpoint containers and packfiles one
/// tier lists under cp/, in MigrationEngine::cold_files() order.
std::vector<std::string> migratable_listing(io::Env& tier) {
  std::vector<std::string> names;
  for (const std::string& name : tier.list_dir("cp")) {
    if (tier::migratable_path(name)) {
      names.push_back(name);
    }
  }
  for (const std::string& name : tier.list_dir("cp/chunks")) {
    if (tier::migratable_path(name)) {
      names.push_back("chunks/" + name);
    }
  }
  return names;
}

/// One MemEnv split into hot/ and cold/ mounts with a TieredEnv on top —
/// the canonical test composition (same shape the crash matrix uses).
struct TierFixture {
  io::MemEnv base;
  io::PrefixEnv hot{base, "hot"};
  io::PrefixEnv cold{base, "cold"};
  TieredEnv env;

  explicit TierFixture(bool promote_on_read = false)
      : env(hot, cold, promote_on_read) {}
};

TEST(BytesRead, MemEnvCountsReadBytes) {
  io::MemEnv env;
  env.write_file_atomic("d/a", bytes_of("hello"));
  EXPECT_EQ(env.bytes_read(), 0u);
  ASSERT_TRUE(env.read_file("d/a"));
  EXPECT_EQ(env.bytes_read(), 5u);
  EXPECT_FALSE(env.read_file("d/missing"));
  EXPECT_EQ(env.bytes_read(), 5u);  // misses transfer nothing
}

TEST(BytesRead, TieredAndPrefixEnvsCount) {
  TierFixture f;
  f.env.write_file_atomic("d/a", bytes_of("abcd"));
  ASSERT_TRUE(f.env.read_file("d/a"));
  EXPECT_EQ(f.env.bytes_written(), 4u);
  EXPECT_EQ(f.env.bytes_read(), 4u);
  EXPECT_EQ(f.hot.bytes_read(), 4u);
  EXPECT_EQ(f.cold.bytes_read(), 0u);
}

TEST(PrefixEnv, MountsSubtreeOfBase) {
  io::MemEnv base;
  io::PrefixEnv mount(base, "root");
  mount.write_file_atomic("d/a", bytes_of("x"));
  EXPECT_TRUE(base.exists("root/d/a"));
  EXPECT_TRUE(mount.exists("d/a"));
  EXPECT_EQ(mount.list_dir("d"), std::vector<std::string>{"a"});
  mount.remove_file("d/a");
  EXPECT_FALSE(base.exists("root/d/a"));
}

TEST(ShapedEnv, ModelsLatencyAndBandwidth) {
  io::MemEnv base;
  ShapeSpec spec;
  spec.read_latency_s = 0.001;
  spec.write_latency_s = 0.002;
  spec.read_bytes_per_s = 1000.0;
  spec.write_bytes_per_s = 500.0;
  ShapedEnv env(base, spec);

  env.write_file_atomic("d/a", bytes_of("0123456789"));  // 10 bytes
  EXPECT_NEAR(env.modeled_write_seconds(), 0.002 + 10.0 / 500.0, 1e-9);
  ASSERT_TRUE(env.read_file("d/a"));
  EXPECT_NEAR(env.modeled_read_seconds(), 0.001 + 10.0 / 1000.0, 1e-9);
  // A miss costs one metadata round trip (the read latency here).
  ASSERT_FALSE(env.read_file("d/missing"));
  EXPECT_NEAR(env.modeled_read_seconds(), 2 * 0.001 + 10.0 / 1000.0, 1e-9);
}

TEST(ShapedEnv, PlainStreamChargesEveryAppendAsADeviceOp) {
  io::MemEnv base;
  ShapeSpec spec;
  spec.write_latency_s = 0.002;
  spec.write_bytes_per_s = 500.0;
  ShapedEnv env(base, spec);

  // kPlain appends land in place immediately: each one is an
  // independent device op and must pay latency + bandwidth — the WAL's
  // group-commit economics depend on per-record charging.
  auto log = env.new_writable("d/log", io::WriteMode::kPlain);
  log->append(bytes_of("aaaa"));
  log->append(bytes_of("bb"));
  log->append(bytes_of("cccc"));
  log->close();
  const double plain = 3 * 0.002 + 10.0 / 500.0;
  EXPECT_NEAR(env.modeled_write_seconds(), plain, 1e-9);

  // kAtomic stages: one latency at open, bandwidth per append — so the
  // whole-buffer write_file wrappers charge what they always charged.
  auto blob = env.new_writable("d/blob", io::WriteMode::kAtomic);
  blob->append(bytes_of("aaaa"));
  blob->append(bytes_of("bb"));
  blob->close();
  EXPECT_NEAR(env.modeled_write_seconds(), plain + 0.002 + 6.0 / 500.0, 1e-9);
}

TEST(TieredEnv, WritesLandHotReadsFallThroughCold) {
  TierFixture f;
  f.env.write_file_atomic("d/a", bytes_of("hot-data"));
  EXPECT_TRUE(f.hot.exists("d/a"));
  EXPECT_FALSE(f.cold.exists("d/a"));

  f.cold.write_file_atomic("d/b", bytes_of("cold-data"));
  const auto data = f.env.read_file("d/b");
  ASSERT_TRUE(data);
  EXPECT_EQ(*data, bytes_of("cold-data"));
  EXPECT_EQ(f.env.cold_reads(), 1u);
  EXPECT_EQ(f.env.cold_read_bytes(), 9u);
  // Without promote_on_read the object stays cold.
  EXPECT_FALSE(f.hot.exists("d/b"));

  // Union semantics.
  EXPECT_TRUE(f.env.exists("d/a"));
  EXPECT_TRUE(f.env.exists("d/b"));
  EXPECT_EQ(f.env.list_dir("d"), (std::vector<std::string>{"a", "b"}));
  f.env.remove_file("d/b");
  EXPECT_FALSE(f.cold.exists("d/b"));
}

TEST(TieredEnv, OverwriteScrubsStaleColdCopy) {
  TierFixture f;
  f.cold.write_file_atomic("d/a", bytes_of("stale"));
  f.env.write_file_atomic("d/a", bytes_of("fresh"));
  EXPECT_TRUE(f.hot.exists("d/a"));
  // The stale cold copy must die, or a later hot delete (or duplicate
  // collapse) could resurrect old bytes.
  EXPECT_FALSE(f.cold.exists("d/a"));
  EXPECT_EQ(*f.env.read_file("d/a"), bytes_of("fresh"));
}

TEST(TieredEnv, ScrubFilterSkipsColdOpsForPinnedHotPaths) {
  io::MemEnv base;
  io::PrefixEnv hot(base, "hot");
  io::PrefixEnv cold(base, "cold");
  TieredEnv env(hot, cold, /*promote_on_read=*/false,
                tier::migratable_path);
  // A migratable name still gets its stale cold copy scrubbed...
  const std::string ckpt = "cp/" + ckpt::checkpoint_file_name(1);
  cold.write_file_atomic(ckpt, bytes_of("stale"));
  env.write_file_atomic(ckpt, bytes_of("fresh"));
  EXPECT_FALSE(cold.exists(ckpt));
  // ...while non-migratable paths skip the scrub entirely (observable:
  // a planted cold copy survives the overwrite — in real directories
  // one never exists, which is exactly why the filter is safe).
  cold.write_file_atomic("cp/MANIFEST", bytes_of("planted"));
  env.write_file_atomic("cp/MANIFEST", bytes_of("fresh"));
  EXPECT_TRUE(cold.exists("cp/MANIFEST"));
  EXPECT_EQ(*env.read_file("cp/MANIFEST"), bytes_of("fresh"));
}

TEST(TieredEnv, PromoteOnReadMovesObjectHot) {
  TierFixture f(/*promote_on_read=*/true);
  f.cold.write_file_atomic("d/a", bytes_of("payload"));
  ASSERT_TRUE(f.env.read_file("d/a"));
  EXPECT_TRUE(f.hot.exists("d/a"));
  EXPECT_FALSE(f.cold.exists("d/a"));
  EXPECT_EQ(f.env.promoted_files(), 1u);
  EXPECT_EQ(f.env.promoted_bytes(), 7u);
  // Second read is a pure hot hit.
  ASSERT_TRUE(f.env.read_file("d/a"));
  EXPECT_EQ(f.env.cold_reads(), 1u);
}

/// Policy with v3 content-addressing at a tiny chunk size, so packfiles
/// exist and most chunks dedup across the mostly-frozen states.
CheckpointPolicy tiered_policy(std::uint64_t hot_budget,
                               std::size_t pin_hot_last = 1) {
  CheckpointPolicy policy;
  policy.strategy = ckpt::Strategy::kFullState;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;  // retention off: placement is on trial
  policy.codec = codec::CodecId::kRaw;
  policy.chunk_bytes = 64;
  policy.tier.hot_byte_budget = hot_budget;
  policy.tier.pin_hot_last = pin_hot_last;
  return policy;
}

TEST(Migration, DemotesOldCheckpointsUnderBudget) {
  TierFixture f;
  const std::uint64_t budget = 12 << 10;
  {
    Checkpointer ck(f.env, "cp", tiered_policy(budget));
    for (std::uint64_t step = 1; step <= 10; ++step) {
      ck.checkpoint_now(make_state(step));
    }
    const auto ts = ck.tier_stats();
    EXPECT_GT(ts.files_demoted, 0u);
    EXPECT_LE(ts.hot_bytes, budget) << "hot tier exceeds its byte budget";
    EXPECT_EQ(ts.budget_misses, 0u);
  }
  // The cold tier lists what was demoted and the hot tier no longer
  // does; the newest checkpoint stayed a pure hot hit.
  const auto cold = migratable_listing(f.cold);
  EXPECT_FALSE(cold.empty());
  for (const std::string& name : cold) {
    EXPECT_FALSE(f.hot.exists("cp/" + name)) << name << " in both tiers";
  }
  const Manifest manifest = Manifest::load(f.env, "cp");
  ASSERT_EQ(manifest.entries().size(), 10u);
  EXPECT_TRUE(f.hot.exists("cp/" + manifest.latest()->file));

  // Every retained checkpoint still recovers byte-exactly through the
  // tier composition (cold reads fall through).
  for (const ckpt::ManifestEntry& e : manifest.entries()) {
    const auto st = ckpt::load_checkpoint(f.env, "cp", e.id);
    EXPECT_EQ(st, make_state(e.step)) << "id " << e.id;
  }
}

TEST(Migration, PackfilesDemoteOnlyWhenFullyCold) {
  TierFixture f;
  Checkpointer ck(f.env, "cp", tiered_policy(8 << 10));
  for (std::uint64_t step = 1; step <= 10; ++step) {
    ck.checkpoint_now(make_state(step));
  }
  // The shared first-epoch packfile holds the frozen chunks every
  // checkpoint (including the pinned-hot newest) references: it must
  // still be hot. Some per-epoch packfile of a demoted checkpoint
  // should have demoted with its referents.
  ASSERT_TRUE(f.env.exists("cp/chunks/pack-0000000001.qpak"));
  EXPECT_TRUE(f.hot.exists("cp/chunks/pack-0000000001.qpak"));
  bool some_cold_pack = false;
  for (const std::string& name : f.cold.list_dir("cp/chunks")) {
    some_cold_pack |= name.rfind("pack-", 0) == 0;
  }
  EXPECT_TRUE(some_cold_pack) << "no packfile demoted";
}

TEST(Migration, ChainsDemoteAsOneUnit) {
  TierFixture f;
  CheckpointPolicy policy;
  policy.strategy = ckpt::Strategy::kIncremental;
  policy.every_steps = 1;
  policy.full_every = 3;
  policy.retention.keep_last = 0;
  // Demotion disabled during the run (budget 0): we only want the plan.
  {
    Checkpointer ck(f.env, "cp", policy);
    for (std::uint64_t step = 1; step <= 9; ++step) {
      ck.checkpoint_now(make_state(step, 64));
    }
  }
  const Manifest manifest = Manifest::load(f.env, "cp");
  tier::TierPolicy tp;
  tp.hot_byte_budget = 1;  // everything not pinned must plan
  tp.pin_hot_last = 1;     // pins the newest chain (ids 7..9)
  ckpt::CheckpointStore store(f.env, "cp", ckpt::RetentionPolicy{}, tp);
  ASSERT_NE(store.tiering(), nullptr);
  const auto plan = store.tiering()->plan_demotions(manifest);

  // Chains {1,2,3} and {4,5,6} each form one unit; 7..9 are pinned.
  std::vector<std::set<std::string>> units;
  for (const auto& unit : plan) {
    units.emplace_back(unit.files.begin(), unit.files.end());
  }
  const auto file_of = [&](std::uint64_t id) {
    return ckpt::checkpoint_file_name(id);
  };
  bool found_123 = false, found_456 = false;
  for (const auto& unit : units) {
    found_123 |= unit == std::set<std::string>{file_of(1), file_of(2),
                                               file_of(3)};
    found_456 |= unit == std::set<std::string>{file_of(4), file_of(5),
                                               file_of(6)};
  }
  EXPECT_TRUE(found_123) << "chain 1-3 not planned as one unit";
  EXPECT_TRUE(found_456) << "chain 4-6 not planned as one unit";
  for (const auto& unit : units) {
    EXPECT_FALSE(unit.contains(file_of(9))) << "pinned tip planned";
  }
}

TEST(Migration, ReconcileCollapsesDuplicatesHotWins) {
  TierFixture f;
  f.hot.write_file_atomic("cp/" + ckpt::checkpoint_file_name(1),
                          bytes_of("fresh-hot"));
  f.cold.write_file_atomic("cp/" + ckpt::checkpoint_file_name(1),
                           bytes_of("stale-cold"));
  f.cold.write_file_atomic("cp/" + ckpt::checkpoint_file_name(2),
                           bytes_of("cold-only"));
  MigrationEngine engine(f.env, "cp", tier::TierPolicy{});
  EXPECT_EQ(engine.reconcile(), 1u);
  EXPECT_EQ(*f.env.read_file("cp/" + ckpt::checkpoint_file_name(1)),
            bytes_of("fresh-hot"));
  EXPECT_FALSE(f.cold.exists("cp/" + ckpt::checkpoint_file_name(1)));
  // The cold-only object survives, and the cold listing is all that
  // names it.
  EXPECT_EQ(migratable_listing(f.cold),
            std::vector<std::string>{ckpt::checkpoint_file_name(2)});
  EXPECT_EQ(engine.cold_files(), migratable_listing(f.cold));
}

TEST(Migration, ReopenRemovesTiermapAnEarlierVersionWrote) {
  // Earlier versions recorded residency a second time, in a TIERMAP in
  // the hot tier. A directory they tiered reopens with that file gone
  // and nothing else moved, even where a mark is stale (names an object
  // the hot tier holds): the listings are the record.
  TierFixture f;
  const CheckpointPolicy policy = tiered_policy(12 << 10);
  {
    Checkpointer ck(f.env, "cp", policy);
    for (std::uint64_t step = 1; step <= 10; ++step) {
      ck.checkpoint_now(make_state(step));
    }
  }
  const auto hot_before = migratable_listing(f.hot);
  const auto cold_before = migratable_listing(f.cold);
  ASSERT_FALSE(hot_before.empty());
  ASSERT_FALSE(cold_before.empty()) << "nothing demoted";
  std::string tiermap = "qnnckpt-tiermap v1\n";
  for (const std::string& name : cold_before) {
    tiermap += "cold " + name + "\n";
  }
  tiermap += "cold " + hot_before.front() + "\n";
  f.hot.write_file_atomic("cp/TIERMAP", bytes_of(tiermap));

  { Checkpointer ck(f.env, "cp", policy); }  // startup reconcile
  EXPECT_FALSE(f.env.exists("cp/TIERMAP"));
  const Manifest manifest = Manifest::load(f.env, "cp");
  ASSERT_EQ(manifest.entries().size(), 10u);
  for (const ckpt::ManifestEntry& e : manifest.entries()) {
    EXPECT_EQ(ckpt::load_checkpoint(f.env, "cp", e.id), make_state(e.step))
        << "id " << e.id;
  }
  EXPECT_EQ(migratable_listing(f.hot), hot_before);
  EXPECT_EQ(migratable_listing(f.cold), cold_before);
  MigrationEngine engine(f.env, "cp", tier::TierPolicy{});
  EXPECT_EQ(engine.cold_files(), cold_before);
}

TEST(Migration, ColdCheckpointsPromoteReadThroughOnAccess) {
  TierFixture f(/*promote_on_read=*/true);
  const std::uint64_t budget = 10 << 10;
  {
    Checkpointer ck(f.env, "cp", tiered_policy(budget));
    for (std::uint64_t step = 1; step <= 10; ++step) {
      ck.checkpoint_now(make_state(step));
    }
  }
  const Manifest manifest = Manifest::load(f.env, "cp");
  const std::string oldest = manifest.entries().front().file;
  ASSERT_TRUE(f.cold.exists("cp/" + oldest)) << "oldest never demoted";

  const std::uint64_t cold_before = f.env.cold_reads();
  const auto st =
      ckpt::load_checkpoint(f.env, "cp", manifest.entries().front().id);
  EXPECT_EQ(st, make_state(manifest.entries().front().step));
  EXPECT_GT(f.env.cold_reads(), cold_before);
  EXPECT_GT(f.env.promoted_files(), 0u);
  // Promoted: the container now lives hot, the cold copy died.
  EXPECT_TRUE(f.hot.exists("cp/" + oldest));
  EXPECT_FALSE(f.cold.exists("cp/" + oldest));
}

TEST(Migration, GcDeletesVictimsFromBothTiers) {
  TierFixture f;
  auto policy = tiered_policy(6 << 10);
  {
    Checkpointer ck(f.env, "cp", policy);
    for (std::uint64_t step = 1; step <= 8; ++step) {
      ck.checkpoint_now(make_state(step));
    }
    ASSERT_FALSE(f.cold.list_dir("cp").empty());
  }
  // Restart with a tight retention window: demoted victims must vanish
  // from the cold tier too, and recovery still lands on the newest.
  policy.retention.keep_last = 2;
  {
    Checkpointer ck(f.env, "cp", policy);
    ck.checkpoint_now(make_state(9));
  }
  const Manifest manifest = Manifest::load(f.env, "cp");
  EXPECT_LE(manifest.entries().size(), 3u);
  for (const std::string& name : f.cold.list_dir("cp")) {
    if (const auto id = ckpt::parse_checkpoint_file_name(name)) {
      EXPECT_NE(manifest.find(*id), nullptr)
          << "cold tier leaked GC victim " << name;
    }
  }
  const auto outcome = ckpt::recover_latest(f.env, "cp");
  ASSERT_TRUE(outcome);
  EXPECT_EQ(outcome->step, 9u);
}

TEST(Migration, VerifyDirectoryReportsTierResidency) {
  TierFixture f;
  {
    Checkpointer ck(f.env, "cp", tiered_policy(10 << 10));
    for (std::uint64_t step = 1; step <= 10; ++step) {
      ck.checkpoint_now(make_state(step));
    }
  }
  const auto report = ckpt::verify_directory(f.env, "cp");
  EXPECT_TRUE(report.healthy()) << report.summary();
  bool some_cold = false, some_hot = false;
  for (const auto& r : report.checkpoints) {
    some_cold |= r.tier == "cold";
    some_hot |= r.tier == "hot";
    EXPECT_FALSE(r.tier.empty());
  }
  EXPECT_TRUE(some_cold);
  EXPECT_TRUE(some_hot);
}

TEST(Migration, VerifyDirectoryNeverPromotes) {
  // A scrub is read-only on a promoting TieredEnv too: its cold reads
  // must not pull containers or packfiles hot.
  const auto listing = [](io::Env& tier) {
    std::vector<std::string> names = tier.list_dir("cp");
    for (const std::string& name : tier.list_dir("cp/chunks")) {
      names.push_back("chunks/" + name);
    }
    return names;
  };
  std::vector<std::string> labels[2];
  for (const bool promote_on_read : {false, true}) {
    TierFixture f(promote_on_read);
    {
      Checkpointer ck(f.env, "cp", tiered_policy(10 << 10));
      for (std::uint64_t step = 1; step <= 10; ++step) {
        ck.checkpoint_now(make_state(step));
      }
    }
    const auto hot_before = listing(f.hot);
    const auto cold_before = listing(f.cold);
    ASSERT_FALSE(f.cold.list_dir("cp/chunks").empty()) << "no pack demoted";
    const std::uint64_t promoted = f.env.promoted_files();

    const auto report = ckpt::verify_directory(f.env, "cp");
    EXPECT_TRUE(report.healthy()) << report.summary();
    EXPECT_EQ(listing(f.hot), hot_before);
    EXPECT_EQ(listing(f.cold), cold_before);
    EXPECT_EQ(f.env.promoted_files(), promoted);
    for (const auto& r : report.checkpoints) {
      labels[promote_on_read].push_back(r.tier);
    }
  }
  EXPECT_EQ(labels[1], labels[0]);
  EXPECT_GT(std::count(labels[1].begin(), labels[1].end(), "cold"), 0);
}

/// Cold tier that refuses every write (full / unreachable object store).
class BrokenColdEnv final : public io::ForwardingEnv {
 public:
  explicit BrokenColdEnv(io::Env& base) : ForwardingEnv(base) {}
  std::unique_ptr<io::WritableFile> new_writable(const std::string&,
                                                 io::WriteMode) override {
    throw std::runtime_error("cold tier unavailable");
  }
  void write_file_atomic(const std::string&, util::ByteSpan) override {
    throw std::runtime_error("cold tier unavailable");
  }
  void write_file(const std::string&, util::ByteSpan) override {
    throw std::runtime_error("cold tier unavailable");
  }
  [[nodiscard]] std::uint64_t bytes_written() const override { return 0; }
};

TEST(Migration, ColdTierFailureNeverPoisonsDurableInstalls) {
  // Demotion is best-effort: if the capacity tier rejects every write,
  // checkpoints must keep installing hot, nothing may be counted as
  // dropped, and incremental chains must stay intact (a thrown migrate
  // on the async install path used to run on_failed and quarantine the
  // just-installed checkpoint's children).
  io::MemEnv base;
  io::PrefixEnv hot(base, "hot");
  io::PrefixEnv cold_base(base, "cold");
  BrokenColdEnv cold(cold_base);
  TieredEnv env(hot, cold, /*promote_on_read=*/false);

  CheckpointPolicy policy;
  policy.strategy = ckpt::Strategy::kIncremental;
  policy.every_steps = 1;
  // Short chains and a one-entry hot pin, so the older chain segments
  // are genuinely demotable (one endless chain would be pinned whole by
  // chain closure and never trigger a cold write at all).
  policy.full_every = 2;
  policy.retention.keep_last = 0;
  policy.async = true;
  policy.tier.hot_byte_budget = 1;  // always over budget: migrate tries
  policy.tier.pin_hot_last = 1;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 6; ++step) {
      ck.checkpoint_now(make_state(step, 64));
      ck.flush();
    }
    EXPECT_EQ(ck.stats().dropped_writes, 0u);
  }
  const Manifest manifest = Manifest::load(env, "cp");
  EXPECT_EQ(manifest.entries().size(), 6u);
  for (const ckpt::ManifestEntry& e : manifest.entries()) {
    EXPECT_NO_THROW((void)ckpt::load_checkpoint(env, "cp", e.id))
        << "id " << e.id;
  }
  EXPECT_TRUE(cold_base.list_dir("cp").empty());
}

TEST(ManifestStats, StatLinesRoundTripWithoutWarnings) {
  io::MemEnv env;
  Manifest m;
  ckpt::ManifestEntry e;
  e.id = 1;
  e.file = ckpt::checkpoint_file_name(1);
  m.upsert(e);
  m.set_stat("dropped_writes", 3);
  m.save(env, "cp");
  const Manifest loaded = Manifest::load(env, "cp");
  EXPECT_EQ(loaded.parse_warnings(), 0u);
  EXPECT_EQ(loaded.stat("dropped_writes"), 3u);
  EXPECT_EQ(loaded.stat("absent"), 0u);
  ASSERT_EQ(loaded.entries().size(), 1u);
}

/// Env decorator failing one specific checkpoint-file write, to force a
/// pipeline drop whose lifetime count must survive a restart.
class FailOnceEnv final : public io::ForwardingEnv {
 public:
  explicit FailOnceEnv(io::Env& base, int fail_on)
      : ForwardingEnv(base), fail_on_(fail_on) {}
  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override {
    if (path.find("ckpt-") != std::string::npos &&
        ++ckpt_writes_ == fail_on_) {
      throw std::runtime_error("injected write failure");
    }
    return base_.new_writable(path, mode);
  }

 private:
  const int fail_on_;
  int ckpt_writes_ = 0;
};

TEST(CheckpointerStats, DroppedWritesSurviveRestartViaManifest) {
  io::MemEnv mem;
  FailOnceEnv env(mem, 2);
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.async = true;
  policy.retention.keep_last = 0;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 4; ++step) {
      ck.checkpoint_now(make_state(step, 64));
      ck.flush();
    }
    const auto stats = ck.stats();
    EXPECT_EQ(stats.dropped_writes, 1u);
    EXPECT_EQ(stats.lifetime_dropped_writes, 1u);
  }
  // A fresh Checkpointer (fresh process) still knows about the loss.
  {
    Checkpointer ck(env, "cp", policy);
    EXPECT_EQ(ck.stats().lifetime_dropped_writes, 1u);
    EXPECT_EQ(ck.stats().dropped_writes, 0u);
  }
  EXPECT_EQ(Manifest::load(mem, "cp").stat("dropped_writes"), 1u);
}

}  // namespace
}  // namespace qnn
