// Tests for manifest, checkpointer (policies, retention, incremental
// chains), async writer, and recovery fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "ckpt/cas.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/verify.hpp"
#include "ckpt/wal.hpp"
#include "io/fault_env.hpp"
#include "io/mem_env.hpp"
#include "qnn/ansatz.hpp"
#include "util/strings.hpp"
#include "qnn/loss.hpp"
#include "qnn/trainer.hpp"
#include "tier/tiered_env.hpp"

namespace qnn::ckpt {
namespace {

// ---------- manifest ----------

TEST(Manifest, FileNameRoundTrip) {
  EXPECT_EQ(checkpoint_file_name(42), "ckpt-0000000042.qckp");
  EXPECT_EQ(parse_checkpoint_file_name("ckpt-0000000042.qckp").value(), 42u);
  EXPECT_FALSE(parse_checkpoint_file_name("ckpt-42.qckp").has_value());
  EXPECT_FALSE(parse_checkpoint_file_name("ckpt-00000000xx.qckp").has_value());
  EXPECT_FALSE(parse_checkpoint_file_name("other.bin").has_value());
}

TEST(Manifest, SaveLoadRoundTrip) {
  io::MemEnv env;
  Manifest m;
  m.upsert(ManifestEntry{.id = 1, .parent_id = 0, .step = 10,
                         .file = checkpoint_file_name(1), .bytes = 100});
  m.upsert(ManifestEntry{.id = 2, .parent_id = 1, .step = 20,
                         .file = checkpoint_file_name(2), .bytes = 50});
  m.save(env, "d");
  const Manifest back = Manifest::load(env, "d");
  ASSERT_EQ(back.entries().size(), 2u);
  EXPECT_EQ(back.entries()[0].id, 1u);
  EXPECT_EQ(back.entries()[1].parent_id, 1u);
  EXPECT_EQ(back.entries()[1].step, 20u);
  EXPECT_EQ(back.max_id(), 2u);
  EXPECT_EQ(back.latest()->id, 2u);
}

TEST(Manifest, LoadMissingIsEmpty) {
  io::MemEnv env;
  EXPECT_TRUE(Manifest::load(env, "nope").entries().empty());
  EXPECT_EQ(Manifest::load(env, "nope").max_id(), 0u);
}

TEST(Manifest, MalformedLinesSkipped) {
  io::MemEnv env;
  const std::string text =
      "qnnckpt-manifest v1\n"
      "ckpt id=3 parent=0 step=30 bytes=9 file=ckpt-0000000003.qckp\n"
      "ckpt id=borked\n"
      "something else entirely\n"
      "ckpt id=4 file=f4\n";
  env.write_file_atomic(
      "d/MANIFEST",
      util::ByteSpan{reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});
  const Manifest m = Manifest::load(env, "d");
  ASSERT_EQ(m.entries().size(), 2u);
  EXPECT_EQ(m.entries()[0].id, 3u);
  EXPECT_EQ(m.entries()[1].id, 4u);
}

TEST(Manifest, UpsertReplacesAndSorts) {
  Manifest m;
  m.upsert(ManifestEntry{.id = 5, .file = "f5"});
  m.upsert(ManifestEntry{.id = 2, .file = "f2"});
  m.upsert(ManifestEntry{.id = 5, .file = "f5b", .bytes = 1});
  ASSERT_EQ(m.entries().size(), 2u);
  EXPECT_EQ(m.entries()[0].id, 2u);
  EXPECT_EQ(m.entries()[1].file, "f5b");
  m.remove(2);
  EXPECT_EQ(m.entries().size(), 1u);
  EXPECT_EQ(m.find(2), nullptr);
}

TEST(CheckpointStore, PlanRetainedFollowsParentChains) {
  io::MemEnv env;
  Manifest m;
  // full 1 <- incr 2 <- incr 3; full 4; incr 5 (parent 4)
  m.upsert(ManifestEntry{.id = 1, .parent_id = 0, .file = "1"});
  m.upsert(ManifestEntry{.id = 2, .parent_id = 1, .file = "2"});
  m.upsert(ManifestEntry{.id = 3, .parent_id = 2, .file = "3"});
  m.upsert(ManifestEntry{.id = 4, .parent_id = 0, .file = "4"});
  m.upsert(ManifestEntry{.id = 5, .parent_id = 4, .file = "5"});
  // Keep last 2 entries (4, 5) -> ancestors of 5 = {4}; total {4,5}.
  CheckpointStore keep2(env, "d", RetentionPolicy{.keep_last = 2});
  EXPECT_EQ(keep2.plan_retained(m), (std::vector<std::uint64_t>{4, 5}));
  // Keep last 3 -> {3,4,5} + chain of 3 = {1,2}.
  CheckpointStore keep3(env, "d", RetentionPolicy{.keep_last = 3});
  EXPECT_EQ(keep3.plan_retained(m),
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

// ---------- helpers: a real training state ----------

qnn::TrainingState make_state(std::uint64_t step, std::uint64_t seed = 7,
                              std::size_t sim_qubits = 0) {
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
  if (sim_qubits > 0) {
    // A dense (incompressible) state, as a mid-circuit snapshot would be.
    s.simulator_state = qnn::random_state(sim_qubits, seed).serialize();
  }
  return s;
}

// ---------- checkpointer basics ----------

TEST(Checkpointer, EveryStepsPolicy) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 5;
  Checkpointer ck(env, "cp", policy);
  int written = 0;
  for (std::uint64_t step = 1; step <= 20; ++step) {
    written += ck.maybe_checkpoint(make_state(step)) ? 1 : 0;
  }
  EXPECT_EQ(written, 4);
  EXPECT_EQ(ck.stats().checkpoints, 4u);
  // Same step twice -> only one checkpoint.
  EXPECT_FALSE(ck.maybe_checkpoint(make_state(20)));
}

TEST(Checkpointer, WritesRecoverableCheckpoint) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kFullState;
  Checkpointer ck(env, "cp", policy);
  const auto state = make_state(10, 7, /*sim_qubits=*/4);
  ck.checkpoint_now(state);

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 10u);
  EXPECT_EQ(outcome->state, state);
  EXPECT_TRUE(outcome->notes.empty());
}

TEST(Checkpointer, ParamsOnlyExcludesSimulator) {
  io::MemEnv env;
  CheckpointPolicy pol_small;
  pol_small.strategy = Strategy::kParamsOnly;
  CheckpointPolicy pol_full;
  pol_full.strategy = Strategy::kFullState;

  const auto state = make_state(10, 7, /*sim_qubits=*/10);  // 16 KiB sv

  Checkpointer small(env, "a", pol_small);
  small.checkpoint_now(state);
  Checkpointer full(env, "b", pol_full);
  full.checkpoint_now(state);

  const auto size_a = *env.file_size("a/" + checkpoint_file_name(1));
  const auto size_b = *env.file_size("b/" + checkpoint_file_name(1));
  EXPECT_LT(size_a + (1u << 14), size_b);

  // Recovery from params-only yields a state without simulator bytes.
  const auto rec = recover_latest(env, "a");
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->state.simulator_state.empty());
  EXPECT_EQ(rec->state.params, state.params);
}

TEST(Checkpointer, RetentionKeepsOnlyLastK) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 3;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 10; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  const auto files = env.list_dir("cp");
  // MANIFEST + 3 checkpoint files.
  EXPECT_EQ(files.size(), 4u);
  const Manifest m = Manifest::load(env, "cp");
  ASSERT_EQ(m.entries().size(), 3u);
  EXPECT_EQ(m.entries()[0].step, 8u);
  EXPECT_EQ(m.latest()->step, 10u);
}

TEST(Checkpointer, KeepLastZeroKeepsEverything) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 6; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  EXPECT_EQ(Manifest::load(env, "cp").entries().size(), 6u);
}

TEST(Checkpointer, ResumesIdAllocationAcrossInstances) {
  io::MemEnv env;
  CheckpointPolicy policy;
  {
    Checkpointer ck(env, "cp", policy);
    ck.checkpoint_now(make_state(10));
    ck.checkpoint_now(make_state(20));
  }
  {
    Checkpointer ck(env, "cp", policy);  // fresh instance, same dir
    ck.checkpoint_now(make_state(30));
  }
  const Manifest m = Manifest::load(env, "cp");
  ASSERT_EQ(m.entries().size(), 3u);
  EXPECT_EQ(m.entries()[2].id, 3u);  // no id collision
}

// ---------- incremental chains ----------

TEST(Checkpointer, IncrementalChainRecoversExactState) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.full_every = 4;
  Checkpointer ck(env, "cp", policy);

  std::vector<qnn::TrainingState> states;
  for (std::uint64_t step = 1; step <= 10; ++step) {
    states.push_back(make_state(step, 7, 3));
    ck.maybe_checkpoint(states.back());
  }
  EXPECT_GT(ck.stats().incremental_checkpoints, 0u);
  EXPECT_GE(ck.stats().full_checkpoints, 2u);

  // Every checkpoint id must resolve to its exact source state.
  for (std::uint64_t id = 1; id <= 10; ++id) {
    const auto state = load_checkpoint(env, "cp", id);
    EXPECT_EQ(state, states[id - 1]) << "id " << id;
  }
}

TEST(Checkpointer, IncrementalDeltasSmallerWhenStateBarelyChanges) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.full_every = 100;
  policy.codec = codec::CodecId::kRle;
  Checkpointer ck(env, "cp", policy);

  // Identical state at successive steps -> deltas are almost all zeros.
  auto state = make_state(1, 7, 6);
  ck.maybe_checkpoint(state);
  state.step = 2;
  ck.maybe_checkpoint(state);

  const auto full_size = *env.file_size("cp/" + checkpoint_file_name(1));
  const auto delta_size = *env.file_size("cp/" + checkpoint_file_name(2));
  EXPECT_LT(delta_size * 5, full_size);
}

TEST(Checkpointer, FullEveryBoundsChainLength) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.full_every = 3;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 9; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  const Manifest m = Manifest::load(env, "cp");
  int fulls = 0;
  for (const auto& e : m.entries()) {
    fulls += e.is_incremental() ? 0 : 1;
  }
  EXPECT_EQ(fulls, 3);
}

TEST(Checkpointer, RetentionNeverBreaksChains) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.retention.keep_last = 2;
  policy.full_every = 5;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 20; ++step) {
    ck.maybe_checkpoint(make_state(step, 7, 2));
  }
  // Whatever retention kept, the newest checkpoint must resolve.
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 20u);
  EXPECT_TRUE(outcome->notes.empty());
}

/// Sleeps before every MANIFEST write: an install that is slow on
/// whichever thread runs it.
class SlowManifestEnv final : public io::ForwardingEnv {
 public:
  using io::ForwardingEnv::ForwardingEnv;
  static constexpr std::chrono::milliseconds kDelay{5};

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override {
    if (path.ends_with("/MANIFEST")) {
      std::this_thread::sleep_for(kDelay);
    }
    return base_.new_writable(path, mode);
  }
};

TEST(Checkpointer, SyncStallCountsTheInstallAndEveryCallerStage) {
  // A sync checkpoint installs on the caller's thread, then (kIncremental)
  // copies the state over its delta bases and (journal) opens the next
  // epoch's journal; the journal appends between installs run there too.
  // The trainer's stall counts all of it.
  io::MemEnv mem;
  SlowManifestEnv env(mem);
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 2;
  policy.retention.keep_last = 2;
  policy.wal.enable = true;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 8; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  const Checkpointer::Stats s = ck.stats();
  ASSERT_EQ(s.checkpoints, 4u);
  const double slept =
      4 * std::chrono::duration<double>(SlowManifestEnv::kDelay).count();
  EXPECT_GE(s.install_seconds, slept);
  EXPECT_GE(s.trainer_stall_seconds(), s.install_seconds);
  EXPECT_GT(s.keep_bases_seconds, 0.0);
  EXPECT_GT(s.rotate_wal_seconds, 0.0);
  EXPECT_EQ(s.wal_records, 3u);  // steps 3, 5 and 7
  EXPECT_GT(s.wal_append_seconds, 0.0);
  EXPECT_EQ(s.trainer_stall_seconds(),
            s.snapshot_seconds + s.encode_seconds + s.sync_write_seconds +
                s.install_seconds + s.keep_bases_seconds +
                s.rotate_wal_seconds + s.wal_append_seconds);
}

// ---------- checkpoint store: retention + GC ----------

TEST(CheckpointStore, StepSpacingKeepsSparseLongHorizonHistory) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 2;
  policy.retention.step_spacing = 5;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 20; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  const Manifest m = Manifest::load(env, "cp");
  std::vector<std::uint64_t> steps;
  for (const ManifestEntry& e : m.entries()) {
    steps.push_back(e.step);
  }
  // Window {19, 20} plus spaced anchors 1, 6, 11, 16 (every >= 5 steps).
  EXPECT_EQ(steps, (std::vector<std::uint64_t>{1, 6, 11, 16, 19, 20}));
  // Every survivor resolves, and files on disk match the manifest.
  for (const ManifestEntry& e : m.entries()) {
    EXPECT_NO_THROW(load_checkpoint(env, "cp", e.id)) << e.id;
  }
  EXPECT_EQ(env.list_dir("cp").size(), m.entries().size() + 1);  // + MANIFEST
  EXPECT_GT(ck.gc_stats().files_deleted, 0u);
}

TEST(CheckpointStore, YoungDalySpacingDerivedWhenUnset) {
  RetentionPolicy p;
  p.ckpt_cost_seconds = 2.0;
  p.mtbf_seconds = 100.0;
  p.step_seconds = 0.5;
  EXPECT_EQ(p.effective_step_spacing(), 40u);  // sqrt(2*2*100)/0.5
  p.step_spacing = 7;  // explicit spacing wins
  EXPECT_EQ(p.effective_step_spacing(), 7u);
}

TEST(CheckpointStore, ByteBudgetEvictsOldestAndNeverTheNewest) {
  // Measure one checkpoint's encoded size first.
  std::uint64_t one_size = 0;
  {
    io::MemEnv probe;
    CheckpointPolicy p;
    p.retention.keep_last = 0;
    Checkpointer ck(probe, "cp", p);
    ck.checkpoint_now(make_state(1));
    one_size = *probe.file_size("cp/" + checkpoint_file_name(1));
  }

  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;  // budget alone bounds the directory
  policy.retention.byte_budget = one_size * 3 + one_size / 2;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 10; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  const Manifest m = Manifest::load(env, "cp");
  ASSERT_FALSE(m.entries().empty());
  EXPECT_LT(m.entries().size(), 10u);
  EXPECT_EQ(m.latest()->step, 10u) << "newest is sacrosanct";
  std::uint64_t total = 0;
  for (const ManifestEntry& e : m.entries()) {
    total += e.bytes;
    EXPECT_NO_THROW(load_checkpoint(env, "cp", e.id)) << e.id;
  }
  EXPECT_LE(total, policy.retention.byte_budget);
  const auto gc = ck.gc_stats();
  EXPECT_GT(gc.files_deleted, 0u);
  EXPECT_GT(gc.bytes_reclaimed, 0u);
  EXPECT_GT(gc.runs, 0u);
  EXPECT_GT(gc.manifest_rewrites, 0u);
}

TEST(CheckpointStore, ByteBudgetEvictionNeverStrandsDeltaChildren) {
  std::uint64_t one_size = 0;
  {
    io::MemEnv probe;
    CheckpointPolicy p;
    p.retention.keep_last = 0;
    Checkpointer ck(probe, "cp", p);
    ck.checkpoint_now(make_state(1, 7, 2));
    one_size = *probe.file_size("cp/" + checkpoint_file_name(1));
  }
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.full_every = 4;
  policy.retention.keep_last = 0;
  policy.retention.byte_budget = one_size * 4;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 16; ++step) {
    ck.maybe_checkpoint(make_state(step, 7, 2));
  }
  // Whatever the budget evicted, every advertised entry must resolve
  // (eviction is chain-closed: dropping a parent drops its deltas too).
  const Manifest m = Manifest::load(env, "cp");
  ASSERT_FALSE(m.entries().empty());
  for (const ManifestEntry& e : m.entries()) {
    EXPECT_NO_THROW(load_checkpoint(env, "cp", e.id)) << e.id;
  }
  EXPECT_EQ(m.latest()->step, 16u);
}

TEST(CheckpointStore, StartupSweepReapsOrphansBelowTipOnly) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 2;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 4; ++step) {
      ck.maybe_checkpoint(make_state(step));
    }
  }
  // Manifest now holds ids {3, 4}. Plant an unreferenced file below the
  // tip (a GC fence/delete crash leftover) and one above it (an install
  // whose manifest update a crash swallowed).
  const Bytes junk(64, 0xAB);
  env.write_file_atomic("cp/" + checkpoint_file_name(1), junk);
  env.write_file_atomic("cp/" + checkpoint_file_name(9), junk);
  {
    Checkpointer ck(env, "cp", policy);
    EXPECT_EQ(ck.gc_stats().orphans_deleted, 1u);
  }
  EXPECT_FALSE(env.exists("cp/" + checkpoint_file_name(1)));
  EXPECT_TRUE(env.exists("cp/" + checkpoint_file_name(9)))
      << "files newer than the manifest tip must survive the sweep";
}

TEST(CheckpointStore, DamagedManifestSuppressesOrphanSweep) {
  // A manifest that lost a line (bit rot, torn rewrite) may no longer
  // name a parent file that an advertised delta still resolves through.
  // The sweep must not treat that file as garbage — deleting it would
  // turn recoverable manifest damage into permanent data loss.
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.full_every = 10;
  policy.retention.keep_last = 0;
  {
    Checkpointer ck(env, "cp", policy);
    ck.maybe_checkpoint(make_state(1, 7, 2));  // full (id 1)
    ck.maybe_checkpoint(make_state(2, 7, 2));  // delta on 1
    ck.maybe_checkpoint(make_state(3, 7, 2));  // delta on 2
  }
  // Damage the MIDDLE entry's line: manifest advertises {1, 3}, file 2
  // still exists on disk and id 3 still needs it.
  const auto data = env.read_file("cp/MANIFEST");
  ASSERT_TRUE(data.has_value());
  std::string text(data->begin(), data->end());
  const auto pos = text.find("id=2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "id=X");
  env.write_file_atomic(
      "cp/MANIFEST",
      util::ByteSpan{reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});

  {
    Checkpointer ck(env, "cp", policy);  // startup sweep runs here
    EXPECT_EQ(ck.gc_stats().orphans_deleted, 0u);
  }
  EXPECT_TRUE(env.exists("cp/" + checkpoint_file_name(2)))
      << "sweep deleted a file an advertised delta still chains through";
  // The newest advertised checkpoint must still resolve through it.
  EXPECT_EQ(load_checkpoint(env, "cp", 3), make_state(3, 7, 2));
}

TEST(CheckpointStore, CleanlyLostManifestLineAlsoSuppressesSweep) {
  // A whole line can vanish without a parse warning (external edit, copy
  // truncated exactly at a line boundary). The dangling parent link must
  // still suppress the sweep — the lost parent's own ancestors are only
  // named in file headers, so no partial shield is safe — and the stale-
  // journal reap: the lost line may be the active journal's epoch.
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.full_every = 10;
  policy.retention.keep_last = 0;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 4; ++step) {
      ck.maybe_checkpoint(make_state(step, 7, 2));  // 1 full, 2..4 deltas
    }
  }
  // Remove entries 2 and 3 cleanly: the manifest advertises {1, 4}, no
  // warnings, and 4's chain dangles at parent 3 — files 2 and 3 must
  // survive or id 4 can never resolve again.
  const auto data = env.read_file("cp/MANIFEST");
  ASSERT_TRUE(data.has_value());
  std::string text(data->begin(), data->end());
  std::string kept;
  for (const std::string& line : util::split(text, '\n')) {
    if (line.find("id=2") == std::string::npos &&
        line.find("id=3") == std::string::npos && !line.empty()) {
      kept += line + "\n";
    }
  }
  env.write_file_atomic(
      "cp/MANIFEST",
      util::ByteSpan{reinterpret_cast<const std::uint8_t*>(kept.data()),
                     kept.size()});
  ASSERT_EQ(Manifest::load(env, "cp").parse_warnings(), 0u);
  env.write_file_atomic("cp/" + wal_file_name(3), util::ByteSpan{});

  {
    Checkpointer ck(env, "cp", policy);  // startup sweep runs here
    EXPECT_EQ(ck.gc_stats().orphans_deleted, 0u);
    EXPECT_EQ(ck.gc_stats().wals_reaped, 0u);
  }
  EXPECT_TRUE(env.exists("cp/" + checkpoint_file_name(2)));
  EXPECT_TRUE(env.exists("cp/" + checkpoint_file_name(3)));
  EXPECT_TRUE(env.exists("cp/" + wal_file_name(3)));
  EXPECT_EQ(load_checkpoint(env, "cp", 4), make_state(4, 7, 2));
}

TEST(CheckpointStore, PlanRetainedMatchesCollect) {
  io::MemEnv env;
  Manifest m;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    m.upsert(ManifestEntry{.id = id,
                           .parent_id = id % 3 == 1 ? 0 : id - 1,
                           .step = id * 10,
                           .file = checkpoint_file_name(id),
                           .bytes = 100});
    env.write_file_atomic("d/" + checkpoint_file_name(id), Bytes(100, 1));
  }
  m.save(env, "d");
  CheckpointStore store(env, "d", RetentionPolicy{.keep_last = 2});
  const auto plan = store.plan_retained(m);
  // Newest 2 are {5, 6}; 6's chain is 6->5->4, so 4 rides along.
  EXPECT_EQ(plan, (std::vector<std::uint64_t>{4, 5, 6}));
  const std::size_t deleted = store.collect(m);
  EXPECT_EQ(deleted, 3u);
  ASSERT_EQ(m.entries().size(), 3u);
  for (std::uint64_t id : {4u, 5u, 6u}) {
    EXPECT_TRUE(env.exists("d/" + checkpoint_file_name(id)));
  }
  for (std::uint64_t id : {1u, 2u, 3u}) {
    EXPECT_FALSE(env.exists("d/" + checkpoint_file_name(id)));
  }
  // The on-disk manifest matches the in-memory one after the fences.
  const Manifest back = Manifest::load(env, "d");
  EXPECT_EQ(back.entries().size(), 3u);
}

// ---------- manifest damage surfacing ----------

TEST(Manifest, TornTrailingLineCountedAndSurfacedInRecovery) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  Checkpointer ck(env, "cp", policy);
  ck.maybe_checkpoint(make_state(1));
  ck.maybe_checkpoint(make_state(2));

  // Tear the manifest mid-way through its last line, as a crash during a
  // non-atomic rewrite would: cut at the final '=' so the trailing token
  // cannot parse as a key=value pair.
  const auto data = env.read_file("cp/MANIFEST");
  ASSERT_TRUE(data.has_value());
  std::string text(data->begin(), data->end());
  text.resize(text.rfind('='));
  env.write_file_atomic(
      "cp/MANIFEST",
      util::ByteSpan{reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});

  const Manifest m = Manifest::load(env, "cp");
  EXPECT_EQ(m.parse_warnings(), 1u);
  EXPECT_EQ(m.entries().size(), 1u);

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 1u);  // the torn entry is no longer advertised
  bool surfaced = false;
  for (const std::string& note : outcome->notes) {
    surfaced = surfaced || note.find("unparseable") != std::string::npos;
  }
  EXPECT_TRUE(surfaced) << "manifest damage must reach RecoveryOutcome notes";
}

TEST(Manifest, CleanManifestHasNoWarnings) {
  io::MemEnv env;
  Manifest m;
  m.upsert(ManifestEntry{.id = 1, .file = checkpoint_file_name(1)});
  m.save(env, "d");
  EXPECT_EQ(Manifest::load(env, "d").parse_warnings(), 0u);
}

TEST(Manifest, TornTailStatLineNeverShadowsTheRealValue) {
  io::MemEnv env;
  // "stat dropped_writes=123" torn out of "...=1234\n" parses cleanly —
  // it is a well-formed line with the wrong value. save() terminates
  // every line, so any file not ending in '\n' has a torn tail that
  // must be counted as damage, never parsed.
  const std::string text =
      "qnnckpt-manifest v1\n"
      "stat dropped_writes=123";
  env.write_file_atomic(
      "d/MANIFEST",
      util::ByteSpan{reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});
  const Manifest m = Manifest::load(env, "d");
  EXPECT_EQ(m.stat("dropped_writes"), 0u);
  EXPECT_EQ(m.parse_warnings(), 1u);
}

TEST(Manifest, TornTailEntryLineNeverAdvertisesATruncatedEntry) {
  io::MemEnv env;
  // The final ckpt line is torn inside its file name yet still parses
  // as a complete entry — one pointing at a file that does not exist.
  // Advertising it would send recovery (and GC fences) after a phantom.
  const std::string text =
      "qnnckpt-manifest v1\n"
      "ckpt id=1 parent=0 step=10 bytes=9 file=ckpt-0000000001.qckp\n"
      "ckpt id=2 parent=1 step=20 bytes=9 file=ckpt-00000000";
  env.write_file_atomic(
      "d/MANIFEST",
      util::ByteSpan{reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});
  const Manifest m = Manifest::load(env, "d");
  ASSERT_EQ(m.entries().size(), 1u);
  EXPECT_EQ(m.entries()[0].id, 1u);
  EXPECT_EQ(m.parse_warnings(), 1u);
}

TEST(Manifest, TornTailOfPureWhitespaceIsNotDamage) {
  io::MemEnv env;
  const std::string text = "qnnckpt-manifest v1\n  ";
  env.write_file_atomic(
      "d/MANIFEST",
      util::ByteSpan{reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});
  EXPECT_EQ(Manifest::load(env, "d").parse_warnings(), 0u);
}

TEST(CheckpointerStats, LifetimeDroppedWritesStableAcrossReopenCycles) {
  io::MemEnv env;
  {
    // A prior session's loss record.
    Manifest m;
    m.set_stat("dropped_writes", 3);
    m.save(env, "cp");
  }
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  // Two full reopen cycles, each persisting the manifest via installs:
  // the lifetime count must stay 3, not compound to 6 and then 9 by
  // re-adding the base on every save.
  for (std::uint64_t cycle = 1; cycle <= 2; ++cycle) {
    Checkpointer ck(env, "cp", policy);
    EXPECT_EQ(ck.stats().lifetime_dropped_writes, 3u) << "cycle " << cycle;
    ck.maybe_checkpoint(make_state(cycle * 2 - 1));
    ck.maybe_checkpoint(make_state(cycle * 2));
    EXPECT_EQ(ck.stats().lifetime_dropped_writes, 3u) << "cycle " << cycle;
    EXPECT_EQ(ck.stats().dropped_writes, 0u);
  }
  EXPECT_EQ(Manifest::load(env, "cp").stat("dropped_writes"), 3u);
}

// ---------- recovery fallback ----------

TEST(Recovery, EmptyDirectoryIsNullopt) {
  io::MemEnv env;
  EXPECT_FALSE(recover_latest(env, "empty").has_value());
}

TEST(Recovery, FallsBackWhenNewestCorrupt) {
  // Each case damages checkpoint 3 only: a bit flipped in a full
  // container, the packfile of the chunks only delta 3 of a v3 chain
  // references removed, or a bit flipped in the one all-zero chunk
  // record that delta 3 stores and references once per unchanged chunk.
  // That chain's fold fails mid-link, after links 1 and 2 and delta 3's
  // inline meta were XOR-ed in place, so checkpoint 2 must resolve from
  // scratch. A zero chunk's repeats land without a fetch only after its
  // first fetch verified, so the corrupt record still rejects
  // checkpoint 3.
  CheckpointPolicy full;
  full.every_steps = 1;
  full.retention.keep_last = 0;
  CheckpointPolicy chain = full;
  chain.strategy = Strategy::kIncremental;
  chain.full_every = 10;
  chain.chunk_bytes = kMinChunkBytes;  // params and optimizer go extern
  const auto flip_a_bit = [](io::MemEnv& env) {
    return env.flip_bit("cp/" + checkpoint_file_name(3), 12345);
  };
  const auto drop_the_pack = [](io::MemEnv& env) {
    const std::string pack = "cp/chunks/" + pack_file_name(3);
    if (!env.exists(pack)) {
      return false;
    }
    env.remove_file(pack);
    return true;
  };
  // Step 3 changes one parameter of step 2: delta 3's other params
  // chunks and all its optimizer chunks are zero, the first zero chunks
  // of the chain, so pack 3 holds their one 64-byte record.
  const auto one_param_moves = [](std::uint64_t step) {
    qnn::TrainingState s = make_state(std::min<std::uint64_t>(step, 2));
    s.step = step;
    if (step == 3) {
      s.params[0] += 1.0;
    }
    return s;
  };
  const auto flip_the_zero_record = [&](io::MemEnv& env) {
    const std::string pack = "cp/chunks/" + pack_file_name(3);
    Bytes data = env.read_file(pack).value_or(Bytes{});
    const Bytes record = codec::encode(chain.codec, Bytes(64, 0));
    const auto at = std::ranges::search(data, record).begin();
    if (at == data.end() ||
        !std::ranges::search(at + 1, data.end(), record.begin(),
                             record.end())
             .empty()) {
      return false;  // absent, or not one record
    }
    return env.flip_bit(pack, static_cast<std::size_t>(at - data.begin()) * 8);
  };
  struct Case {
    const char* name;
    CheckpointPolicy policy;
    std::function<bool(io::MemEnv&)> damage;
    std::function<qnn::TrainingState(std::uint64_t)> state =
        [](std::uint64_t step) { return make_state(step); };
  };
  const Case cases[] = {{"full", full, flip_a_bit},
                        {"chain", chain, drop_the_pack},
                        {"zero chunk", chain, flip_the_zero_record,
                         one_param_moves}};
  for (const auto& [name, policy, damage, state] : cases) {
    SCOPED_TRACE(name);
    io::MemEnv env;
    Checkpointer ck(env, "cp", policy);
    ck.maybe_checkpoint(state(1));
    ck.maybe_checkpoint(state(2));
    ck.maybe_checkpoint(state(3));
    const auto intact = recover_latest(env, "cp");
    ASSERT_TRUE(intact.has_value());
    ASSERT_EQ(intact->state, state(3));

    ASSERT_TRUE(damage(env));
    const auto outcome = recover_latest(env, "cp");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->step, 2u);
    EXPECT_EQ(outcome->state, make_state(2));
    ASSERT_EQ(outcome->notes.size(), 1u);
    EXPECT_NE(outcome->notes[0].find("ckpt 3"), std::string::npos);
    EXPECT_EQ(load_checkpoint(env, "cp", 2), make_state(2));
  }
}

TEST(Recovery, RepeatedSectionKindRejectsTheContainer) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  {
    Checkpointer ck(env, "cp", policy);
    ck.maybe_checkpoint(make_state(1));
    ck.maybe_checkpoint(make_state(2));
  }
  // Checkpoint 2 rewritten as a container that names kParams twice,
  // the repeat holding step 3's params. No writer emits one.
  CheckpointFile file;
  file.checkpoint_id = 2;
  file.step = 2;
  file.sections = state_to_sections(make_state(2), false, policy.codec);
  for (Section& s : state_to_sections(make_state(3), false, policy.codec)) {
    if (s.kind == SectionKind::kParams) {
      file.sections.push_back(std::move(s));
    }
  }
  const Bytes data = encode_checkpoint(file);
  env.write_file_atomic("cp/" + checkpoint_file_name(2), data);

  EXPECT_THROW(decode_checkpoint(data), CorruptCheckpoint);
  const SalvageResult salvage = salvage_checkpoint(data);
  ASSERT_TRUE(salvage.file.has_value());
  EXPECT_FALSE(salvage.fully_intact);
  ASSERT_EQ(salvage.notes.size(), 1u);
  EXPECT_NE(salvage.notes[0].find("repeated"), std::string::npos);
  ASSERT_EQ(salvage.file->sections.size(), file.sections.size() - 1);
  EXPECT_EQ(salvage.file->find(SectionKind::kParams)->payload,
            file.find(SectionKind::kParams)->payload)
      << "salvage keeps the first section of a kind";

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 1u);
  EXPECT_EQ(outcome->state, make_state(1));
}

TEST(Recovery, FallsBackPastMultipleCorruptCheckpoints) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 5; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  env.flip_bit("cp/" + checkpoint_file_name(5), 100);
  env.truncate("cp/" + checkpoint_file_name(4), 50);
  env.remove_file("cp/" + checkpoint_file_name(3));
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 2u);
  EXPECT_EQ(outcome->notes.size(), 3u);
}

TEST(Recovery, CorruptParentFailsChildFallsBackToRoot) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.full_every = 10;
  Checkpointer ck(env, "cp", policy);
  ck.maybe_checkpoint(make_state(1));  // full (id 1)
  ck.maybe_checkpoint(make_state(2));  // delta on 1 (id 2)
  ck.maybe_checkpoint(make_state(3));  // delta on 2 (id 3)

  // Corrupting checkpoint 2 poisons both 3 (child) and 2 itself.
  env.flip_bit("cp/" + checkpoint_file_name(2), 999);
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 1u);
  EXPECT_EQ(outcome->notes.size(), 2u);
}

/// Counts read handles opened per path (every read_file opens one).
class OpenCountingEnv final : public io::ForwardingEnv {
 public:
  using io::ForwardingEnv::ForwardingEnv;

  std::map<std::string, int> opens;

  std::unique_ptr<io::RandomAccessFile> open_ranged(
      const std::string& path) override {
    ++opens[path];
    return base_.open_ranged(path);
  }
};

TEST(Recovery, SelfParentHeaderIsRejectedAfterOneRead) {
  io::MemEnv mem;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.full_every = 10;
  {
    Checkpointer ck(mem, "cp", policy);
    for (std::uint64_t step = 1; step <= 3; ++step) {
      ck.maybe_checkpoint(make_state(step));  // full 1, deltas 2 and 3
    }
  }
  // Point delta 3's parent id (after magic, version, flags and its own
  // id) at itself. The footer CRC64 no longer verifies, so the chain
  // walk must reject the file instead of following the link around the
  // loop until the chain-length guard.
  const std::string path = "cp/" + checkpoint_file_name(3);
  auto data = mem.read_file(path);
  ASSERT_TRUE(data.has_value());
  std::size_t off = 16;
  ASSERT_EQ(util::get_le<std::uint64_t>(*data, off), 2u);
  (*data)[16] = 3;
  mem.write_file_atomic(path, util::ByteSpan{*data});

  OpenCountingEnv env(mem);
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 2u);
  EXPECT_EQ(outcome->state, make_state(2));
  EXPECT_EQ(env.opens[path], 1);
  bool rejected = false;
  for (const FlightEvent& e : outcome->events) {
    rejected =
        rejected || (e.name == "candidate.reject" && e.value("id") == "3");
  }
  EXPECT_TRUE(rejected);
}

TEST(Recovery, WorksWithoutManifest) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  Checkpointer ck(env, "cp", policy);
  ck.maybe_checkpoint(make_state(1));
  ck.maybe_checkpoint(make_state(2));
  env.remove_file("cp/MANIFEST");
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 2u);
}

TEST(Recovery, ArrayPayloadLongerThanItsCountFallsBack) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  {
    Checkpointer ck(env, "cp", policy);
    ck.maybe_checkpoint(make_state(1));
    ck.maybe_checkpoint(make_state(2));
  }
  // Checkpoint 3 is intact byte for byte (every CRC verifies), but its
  // params payload carries one double past its declared count.
  CheckpointFile file;
  file.checkpoint_id = 3;
  file.step = 3;
  file.sections = state_to_sections(make_state(3), false, codec::CodecId::kRaw);
  ASSERT_EQ(file.sections[1].kind, SectionKind::kParams);
  util::put_le<double>(file.sections[1].payload, 42.0);
  const Bytes bytes = encode_checkpoint(file);
  env.write_file_atomic("cp/" + checkpoint_file_name(3), bytes);
  ManifestEntry entry;
  entry.id = 3;
  entry.step = 3;
  entry.file = checkpoint_file_name(3);
  entry.bytes = bytes.size();
  Manifest manifest = Manifest::load(env, "cp");
  manifest.upsert(entry);
  manifest.save(env, "cp");

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 2u);
  EXPECT_EQ(outcome->state, make_state(2));
  bool rejected = false;
  for (const FlightEvent& e : outcome->events) {
    rejected = rejected || (e.name == "candidate.reject" &&
                            e.value("id") == "3" &&
                            e.value("error").find("params") !=
                                std::string::npos);
  }
  EXPECT_TRUE(rejected);
}

TEST(Recovery, ExternArraysThatChangeSizeFoldAndReplay) {
  // A v3 incremental chain with chunks small enough that params and the
  // loss history are extern: params grows by more than one chunk at one
  // link and shrinks at the next, then journal records shrink the loss
  // history. Each link decodes into the array's own storage and XORs
  // the base in across the size change.
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 100;  // installs below are explicit
  policy.full_every = 10;
  policy.retention.keep_last = 0;
  policy.chunk_bytes = 256;
  policy.wal.enable = true;
  policy.wal.group_commit_steps = 1;
  const auto state = [](std::uint64_t step, std::size_t n_params,
                        std::size_t n_loss) {
    auto s = make_state(step);
    s.params.resize(n_params);
    for (std::size_t i = 0; i < n_params; ++i) {
      s.params[i] = static_cast<double>(step * 1000 + i);
    }
    s.loss_history.assign(n_loss, 0.25 * static_cast<double>(step));
    return s;
  };
  const std::vector<qnn::TrainingState> states = {
      state(1, 100, 80),  // full: 808 B of params, four chunks
      state(2, 148, 80),  // params + 384 B: more than one chunk more
      state(3, 60, 80),   // params shrinks below its first size
      state(4, 60, 40),   // journal: the loss history shrinks
      state(5, 60, 3),    // ... below one chunk
  };
  {
    Checkpointer ck(env, "cp", policy);
    for (std::size_t i = 0; i < 3; ++i) {
      ck.checkpoint_now(states[i]);
    }
    EXPECT_FALSE(ck.maybe_checkpoint(states[3]));
    EXPECT_FALSE(ck.maybe_checkpoint(states[4]));
    EXPECT_EQ(ck.stats().incremental_checkpoints, 2u);
    EXPECT_EQ(ck.stats().wal_records, 2u);
  }
  for (std::uint64_t id = 2; id <= 3; ++id) {
    for (const SectionIndexEntry& e :
         read_checkpoint_index(env, "cp/" + checkpoint_file_name(id))
             .sections) {
      if (e.kind == SectionKind::kParams ||
          e.kind == SectionKind::kLossHistory) {
        EXPECT_EQ(e.flags, kSectionFlagDelta | kSectionFlagExtern)
            << id << " " << section_kind_name(e.kind);
      }
    }
  }

  for (std::uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(load_checkpoint(env, "cp", id), states[id - 1]) << id;
  }
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 3u);
  EXPECT_EQ(outcome->step, 5u);
  EXPECT_EQ(outcome->state, states.back());
}

// A two-file kIncremental chain written by the version-2 encoder at
// 64-byte chunks: each params section (24 doubles, 200 bytes) is a chunk
// frame, flags 0x02 in the full checkpoint and 0x03 (delta + chunked) in
// its child. No writer emits version 2 any more; recovery must still
// land the frame's chunks in the state's storage, copied for the root
// and XOR-ed into the resolved payload for the delta.

const char* const kV2ChainFull =
    "51434b5002000000010000000000000000000000000000000100000000000000"
    "902fe76a155e060006000000000002003a000000000000001e00000000000000"
    "3a98ed6b06020000000300030103767165050b04736764010209000702000d10"
    "000001000202c800000000000000d6000000000000001595cf1a040000004000"
    "000000000000400000000000000023000000000000001edbc1fa021800090102"
    "f8bf02070200f6040801f4040801f2040801f0040801ec040802e8bf00400000"
    "00000000002800000000000000aad3c6310100020102e4bf0106030000e00408"
    "01d8040801d0040801c0040800050202c03f02070300d03f0040000000000000"
    "0027000000000000000dfbd3410100020102d83f0106030000e0040801e40408"
    "01e8040801ec040801f0040801f2040802f43f00080000000000000008000000"
    "000000002ebccc320100020102f63f0002000200100000000000000006000000"
    "0000000054b82ca801010c010000030002000800000000000000060000000000"
    "00001cb139690141040100000400020018000000000000001300000000000000"
    "1c8fbc2602040007010c01000000020000000300000000050002001000000000"
    "00000009000000000000003ee4391d020100090102e03f00f6aeeb3eabed2e7a"
    "504b4351";

const char* const kV2ChainDelta =
    "51434b5002000000020000000000000001000000000000000200000000000000"
    "2b32e76a155e060006000000000002013a000000000000001000000000000000"
    "70194dc20100160101030105000801000d10000001000203c800000000000000"
    "820000000000000017aa92f70400000040000000000000004000000000000000"
    "0d000000000000003ed258d20100220101160105001201000040000000000000"
    "0006000000000000004e727cae01003c01000040000000000000000d00000000"
    "000000d019189001002a0101180105000a010000080000000000000006000000"
    "000000001eb47966010004010000020002011000000000000000060000000000"
    "00000c670ed801030c0100000300020108000000000000000600000000000000"
    "ea044a2e01030401000004000201180000000000000006000000000000002305"
    "1d8f010014010000050002011800000000000000090000000000000051364b2f"
    "020300110102e03f00dfef1ee8fc1200bf504b4351";

/// The states the chain fixture was written from.
qnn::TrainingState v2_chain_state(std::uint64_t step) {
  qnn::TrainingState s;
  s.step = step;
  s.params.resize(24);
  for (std::size_t i = 0; i < s.params.size(); ++i) {
    s.params[i] = 0.125 * static_cast<double>(i) - 1.5;
  }
  if (step == 2) {
    s.params[3] += 0.5;
    s.params[20] -= 0.25;
  }
  s.optimizer_name = "sgd";
  s.optimizer_state.assign(16, static_cast<std::uint8_t>(step));
  s.rng_state.assign(8, static_cast<std::uint8_t>(0x40 + step));
  s.loss_history.assign(step, 0.5);
  s.cursor = step;
  s.permutation = {0, 1, 2, 3};
  s.workload_tag = "vqe";
  return s;
}

TEST(Recovery, V2ChunkFramedChainRecovers) {
  io::MemEnv env;
  Manifest manifest;
  for (const auto& [id, hex] :
       {std::pair<std::uint64_t, const char*>{1, kV2ChainFull},
        std::pair<std::uint64_t, const char*>{2, kV2ChainDelta}}) {
    const Bytes bytes = util::from_hex(hex);
    env.write_file_atomic("cp/" + checkpoint_file_name(id), bytes);
    manifest.upsert(ManifestEntry{.id = id,
                                  .parent_id = id - 1,
                                  .step = id,
                                  .file = checkpoint_file_name(id),
                                  .bytes = bytes.size()});
  }
  manifest.save(env, "cp");
  for (const std::uint64_t id : {1, 2}) {
    const CheckpointIndex index =
        read_checkpoint_index(env, "cp/" + checkpoint_file_name(id));
    EXPECT_EQ(index.version, 2u);
    ASSERT_EQ(index.sections.at(1).kind, SectionKind::kParams);
    EXPECT_EQ(index.sections.at(1).flags,
              id == 1 ? kSectionFlagChunked
                      : kSectionFlagChunked | kSectionFlagDelta);
  }

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 2u);
  EXPECT_EQ(outcome->state, v2_chain_state(2));
  EXPECT_EQ(load_checkpoint(env, "cp", 1), v2_chain_state(1));
}

TEST(Recovery, LoadCheckpointThrowsOnMissingId) {
  io::MemEnv env;
  EXPECT_THROW(load_checkpoint(env, "cp", 1), std::exception);
}

// ---------- async writer ----------

TEST(AsyncWriter, RunsEveryTaskInSubmissionOrder) {
  std::vector<int> ran;
  {
    AsyncWriter w(2);
    for (int i = 0; i < 10; ++i) {
      // Only the one worker touches `ran` until flush() returns.
      EXPECT_TRUE(w.submit([&ran, i] { ran.push_back(i); }));
    }
    w.flush();
    EXPECT_EQ(ran.size(), 10u);
    const auto stats = w.stats();
    EXPECT_EQ(stats.jobs, 10u);
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(stats.dropped, 0u);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ran[static_cast<std::size_t>(i)], i);
  }
}

TEST(AsyncWriter, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    AsyncWriter w(4);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(w.submit([&ran] { ++ran; }));
    }
  }  // destructor must not lose queued tasks
  EXPECT_EQ(ran.load(), 4);
}

TEST(AsyncWriter, FailuresCountedNotFatal) {
  std::atomic<bool> after{false};
  AsyncWriter w(2);
  EXPECT_TRUE(w.submit([] { throw std::runtime_error("injected"); }));
  EXPECT_TRUE(w.submit([&after] { after = true; }));
  w.flush();
  EXPECT_EQ(w.stats().failures, 1u);
  EXPECT_EQ(w.stats().jobs, 2u);
  EXPECT_TRUE(after.load());  // the worker outlived the throw
}

TEST(AsyncWriter, WaitForRoomTimesOnlyAFullQueue) {
  // A capacity-1 writer whose worker holds a task: the queue has room
  // until one more task waits in it.
  std::promise<void> entered;
  std::future<void> running = entered.get_future();
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  AsyncWriter w(1);
  EXPECT_TRUE(w.submit([&entered, released] {
    entered.set_value();
    released.wait();
  }));
  running.wait();
  EXPECT_EQ(w.wait_for_room(), 0.0);  // room: not even a clock read
  EXPECT_TRUE(w.submit([] {}));
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.set_value();
  });
  EXPECT_GT(w.wait_for_room(), 0.0);  // full until the held task ends
  releaser.join();
  w.flush();
  EXPECT_EQ(w.stats().jobs, 2u);
}

TEST(Checkpointer, AsyncModeProducesRecoverableCheckpoints) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.async = true;
  policy.retention.keep_last = 0;
  std::vector<qnn::TrainingState> states;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 8; ++step) {
      states.push_back(make_state(step));
      ck.maybe_checkpoint(states.back());
    }
    ck.flush();
  }
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 8u);
  EXPECT_EQ(outcome->state, states.back());
}

TEST(Checkpointer, AsyncPipelineChunkedLargeStateRoundTrips) {
  // Full pipeline: trainer thread snapshots only; encode (with chunked
  // sections small enough to fan out on the pipeline's pool) and the
  // write run in the background.
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kFullState;
  policy.every_steps = 1;
  policy.async = true;
  policy.retention.keep_last = 0;
  policy.chunk_bytes = 1024;  // the 10-qubit snapshot spans many chunks
  std::vector<qnn::TrainingState> states;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 6; ++step) {
      states.push_back(make_state(step, 5, 10));
      ck.maybe_checkpoint(states.back());
    }
    ck.flush();
    const auto stats = ck.stats();
    EXPECT_EQ(stats.checkpoints, 6u);
    EXPECT_EQ(stats.dropped_writes, 0u);
    EXPECT_GT(stats.pipeline_encode_seconds, 0.0);
    EXPECT_EQ(stats.encode_seconds, 0.0);  // nothing on the trainer thread
    EXPECT_GT(stats.bytes_encoded, 0u);
  }
  for (std::uint64_t id = 1; id <= 6; ++id) {
    EXPECT_EQ(load_checkpoint(env, "cp", id), states[id - 1]) << id;
  }
}

TEST(Checkpointer, AsyncCasStatsDrainColdPacksWhilePipelineWrites) {
  // cas_stats() is the one chunk-store call the trainer's thread makes
  // while the pipeline thread probes, publishes and sweeps: it takes the
  // store mutex and indexes the cold packs the reopen deferred.
  io::MemEnv hot_base;
  io::MemEnv cold_base;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kFullState;
  policy.retention.keep_last = 2;
  policy.chunk_bytes = 1024;
  // A frozen 10-qubit snapshot (16 KiB) beside 4 KiB of params new at
  // every step: each install dedups the one and reaps older params.
  const auto state = [](std::uint64_t step) {
    qnn::TrainingState s = make_state(step, 5, 10);
    s.params.resize(512);
    util::Rng rng(step);
    for (double& p : s.params) {
      p = rng.uniform(-1.0, 1.0);
    }
    return s;
  };
  {
    tier::TieredEnv env(hot_base, cold_base);
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 3; ++step) {
      ck.checkpoint_now(state(step));
    }
  }
  // Demote every pack by hand: cold copy durable, hot copy gone.
  for (const std::string& name : hot_base.list_dir("cp/chunks")) {
    const std::string path = "cp/chunks/" + name;
    cold_base.write_file_atomic(path, *hot_base.read_file(path));
    hot_base.remove_file(path);
  }
  ASSERT_FALSE(cold_base.list_dir("cp/chunks").empty());

  tier::TieredEnv env(hot_base, cold_base);
  policy.async = true;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 4; step <= 12; ++step) {
      ck.checkpoint_now(state(step));
      EXPECT_GT(ck.cas_stats().packfiles, 0u);
    }
    ck.flush();
    const CasStats live = ck.cas_stats();
    EXPECT_GT(live.dedup_hits, 0u);
    EXPECT_GT(live.packs_deleted, 0u);
    const CasStats fresh = ChunkStore(env, "cp").stats();
    EXPECT_EQ(live.packfiles, fresh.packfiles);
    EXPECT_EQ(live.chunks, fresh.chunks);
    EXPECT_EQ(live.stored_bytes, fresh.stored_bytes);
    EXPECT_EQ(ck.stats().dropped_writes, 0u);
  }
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 12u);
  EXPECT_EQ(outcome->state, state(12));
}

TEST(Checkpointer, EncodeBufferingStaysBoundedUnderV3) {
  // The streaming-encode memory bound, measured rather than claimed:
  // under format v3 the chunk bytes stream into the packfile in waves,
  // so the peak encoded bytes buffered in flight must be a small
  // multiple of chunk_bytes — independent of the checkpoint size. The
  // state below is ~270 KB raw per checkpoint; the bound is ~64 KB.
  constexpr std::size_t kChunk = 4096;
  // Wave buffers: encode_window (2x pool threads, clamped to [4, 16])
  // chunks per wave, and a params section's first chunk also carries
  // its u64 count (extern chunks are cut on the element grid). So one
  // wave holds at most 16 x chunk_bytes + the count prefix; both modes
  // stream the container into its file. Sync encode fills it exactly
  // once the pool has 8 or more threads.
  const std::size_t ceiling =
      16 * kChunk + section_array_offset(SectionKind::kParams);
  auto big_state = [](std::uint64_t step) {
    qnn::TrainingState s = make_state(step);
    s.params.assign(32768, 0.0);
    util::Rng rng(90 + step);
    for (double& p : s.params) {
      p = rng.uniform(-1.0, 1.0);
    }
    return s;
  };
  const auto run = [&](bool async) {
    io::MemEnv env;
    CheckpointPolicy policy;
    policy.strategy = Strategy::kFullState;
    policy.every_steps = 1;
    policy.retention.keep_last = 0;
    policy.codec = codec::CodecId::kRaw;
    policy.chunk_bytes = kChunk;
    policy.async = async;
    Checkpointer ck(env, "cp", policy);
    std::uint64_t raw = 0;
    for (std::uint64_t step = 1; step <= 4; ++step) {
      const auto s = big_state(step);
      raw += s.params.size() * sizeof(double);
      ck.checkpoint_now(s);
    }
    ck.flush();
    const auto stats = ck.stats();
    EXPECT_GT(stats.peak_encode_buffer_bytes, 0u);
    // The raw payload is ~65x chunk_bytes, so a whole-section buffer
    // would blow straight through the ceiling.
    EXPECT_LE(stats.peak_encode_buffer_bytes, ceiling)
        << (async ? "async" : "sync") << " encode buffered too much";
    // Setup sanity against the static ceiling, not the measured peak:
    // the measured value breathes with scheduler timing (encode workers
    // starved on a loaded single-core box buffer a wave or two more),
    // which must not fail the run as long as the ceiling holds.
    EXPECT_GT(raw, 10 * ceiling)
        << "the bound is only meaningful when the state dwarfs it";
    // And the data actually round-trips.
    const auto outcome = recover_latest(env, "cp");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, big_state(outcome->step));
  };
  run(/*async=*/false);
  run(/*async=*/true);
}

TEST(Checkpointer, DestructorDrainsPendingPipelineWork) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kFullState;
  policy.every_steps = 1;
  policy.async = true;
  policy.retention.keep_last = 0;
  policy.chunk_bytes = 512;
  qnn::TrainingState last;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 5; ++step) {
      last = make_state(step, 11, 8);
      ck.maybe_checkpoint(last);
    }
    // No flush: the destructor must finish encodes and writes itself.
  }
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 5u);
  EXPECT_EQ(outcome->state, last);
}

/// Env decorator that throws on exactly one (1-based) open of a
/// checkpoint file for writing, the first step of both modes' write.
/// Everything else (manifest included) passes through.
class FailNthCheckpointWriteEnv final : public io::ForwardingEnv {
 public:
  FailNthCheckpointWriteEnv(io::Env& base, int fail_on)
      : ForwardingEnv(base), fail_on_(fail_on) {}

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override {
    if (path.find("ckpt-") != std::string::npos && ++ckpt_writes_ == fail_on_) {
      throw std::runtime_error("injected checkpoint write failure");
    }
    return base_.new_writable(path, mode);
  }

 private:
  const int fail_on_;
  int ckpt_writes_ = 0;
};

/// Holds the open of one checkpoint file for writing until released,
/// then fails it: the pipeline thread stays inside that checkpoint while
/// the test queues more behind it. Records every path opened for
/// writing.
class GateCheckpointWriteEnv final : public io::ForwardingEnv {
 public:
  GateCheckpointWriteEnv(io::Env& base, std::uint64_t id)
      : ForwardingEnv(base), file_(checkpoint_file_name(id)) {}

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override {
    {
      std::lock_guard lock(mu_);
      opened_.insert(path);
    }
    if (path.ends_with("/" + file_)) {
      entered_.set_value();
      released_.wait();
      throw std::runtime_error("injected checkpoint write failure");
    }
    return base_.new_writable(path, mode);
  }

  void wait_entered() { entered_future_.wait(); }
  void release() { release_.set_value(); }
  bool opened(const std::string& path) {
    std::lock_guard lock(mu_);
    return opened_.contains(path);
  }

 private:
  const std::string file_;
  std::mutex mu_;
  std::set<std::string> opened_;
  std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

/// Throws on the `fail_on`-th append to the packfile of checkpoint
/// `id`, before it writes a byte. Neither FaultEnv (it draws a fault
/// when a stream closes) nor CrashScheduleEnv (it counts no staging
/// append of an atomic stream) fails an append inside an atomic stream.
class FailPackAppendEnv final : public io::ForwardingEnv {
 public:
  FailPackAppendEnv(io::Env& base, std::uint64_t id, int fail_on)
      : ForwardingEnv(base), pack_(pack_file_name(id)), fail_on_(fail_on) {}

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override {
    auto file = base_.new_writable(path, mode);
    if (!path.ends_with("/" + pack_)) {
      return file;
    }
    return std::make_unique<File>(std::move(file), fail_on_);
  }

 private:
  class File final : public io::WritableFile {
   public:
    File(std::unique_ptr<io::WritableFile> inner, int fail_on)
        : inner_(std::move(inner)), fail_on_(fail_on) {}
    void append(util::ByteSpan data) override {
      if (++appends_ == fail_on_) {
        throw std::runtime_error("injected pack append failure");
      }
      inner_->append(data);
    }
    void sync() override { inner_->sync(); }
    void close() override { inner_->close(); }

   private:
    std::unique_ptr<io::WritableFile> inner_;
    const int fail_on_;
    int appends_ = 0;
  };

  const std::string pack_;
  const int fail_on_;
};

/// 32 chunks of 64 KiB that LZ halves (noise, then zeros), different
/// for every `seed`, as the params of a state.
qnn::TrainingState half_noise_state(std::uint64_t step, std::uint64_t seed) {
  qnn::TrainingState s = make_state(step);
  util::Rng rng(seed);
  s.params.assign(32 * 8192, 0.0);
  for (std::size_t i = 0; i < s.params.size(); ++i) {
    if (i % 8192 < 4096) {
      s.params[i] = rng.uniform(-1.0, 1.0);
    }
  }
  return s;
}

TEST(Checkpointer, FailedPackAppendMidEncodeLeavesTheLastCheckpoint) {
  // The pack of checkpoint 2 fails at its 10th append, its 5th record,
  // while the pool compresses the misses after it. The sync checkpoint
  // throws only after every pool task of its encode is done: the state
  // it read is rewritten at once (TSan and ASan report a task still
  // reading it). Nothing of checkpoint 2 is visible, recovery returns
  // checkpoint 1, and the next checkpoint succeeds.
  io::MemEnv mem;
  FailPackAppendEnv env(mem, 2, 10);
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.codec = codec::CodecId::kLz;
  policy.chunk_bytes = std::size_t{64} << 10;
  policy.retention.keep_last = 0;
  Checkpointer ck(env, "cp", policy);
  const qnn::TrainingState first = half_noise_state(1, 1);
  ck.checkpoint_now(first);

  qnn::TrainingState second = half_noise_state(2, 2);
  EXPECT_THROW(ck.checkpoint_now(second), std::runtime_error);
  std::fill(second.params.begin(), second.params.end(), 1.0);
  EXPECT_FALSE(mem.exists("cp/" + checkpoint_file_name(2)));
  EXPECT_EQ(mem.list_dir("cp/chunks"),
            std::vector<std::string>{pack_file_name(1)});
  const auto before = recover_latest(env, "cp");
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->state, first);

  const qnn::TrainingState third = half_noise_state(3, 3);
  ck.checkpoint_now(third);
  const auto after = recover_latest(env, "cp");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->state, third);
  EXPECT_TRUE(verify_directory(env, "cp").healthy());
}

TEST(Checkpointer, DroppedWriteForcesFullAndKeepsChainRecoverable) {
  // The invariant the pipeline promises: a checkpoint that never became
  // durable must not orphan later incremental children. Fail write #3
  // (checkpoint id 3, a delta) and verify the next checkpoint breaks the
  // chain with a full, and that every installed checkpoint resolves. In
  // sync mode the delta was built in its bases' buffers before its file
  // opened, so the bases die with it: the full must refill them.
  for (const bool async : {true, false}) {
    SCOPED_TRACE(async ? "async" : "sync");
    io::MemEnv mem;
    FailNthCheckpointWriteEnv env(mem, 3);
    CheckpointPolicy policy;
    policy.strategy = Strategy::kIncremental;
    policy.every_steps = 1;
    policy.async = async;
    policy.retention.keep_last = 0;
    policy.full_every = 100;  // no scheduled full would break the chain
    std::vector<qnn::TrainingState> states;
    {
      Checkpointer ck(env, "cp", policy);
      for (std::uint64_t step = 1; step <= 6; ++step) {
        states.push_back(make_state(step, 3, 2));
        if (!async && step == 3) {
          // A sync caller sees the loss as the exception alone.
          EXPECT_THROW(ck.maybe_checkpoint(states.back()),
                       std::runtime_error);
        } else {
          ck.maybe_checkpoint(states.back());
        }
        // Drain per step so the drop is observed before the next build.
        ck.flush();
      }
      const auto stats = ck.stats();
      EXPECT_EQ(stats.checkpoints, 6u);
      EXPECT_EQ(stats.dropped_writes, async ? 1u : 0u);
    }
    // id 3 was never written; id 4 must be a self-contained full.
    EXPECT_FALSE(env.exists("cp/" + checkpoint_file_name(3)));
    const auto manifest = Manifest::load(env, "cp");
    const ManifestEntry* after_drop = manifest.find(4);
    ASSERT_NE(after_drop, nullptr);
    EXPECT_EQ(after_drop->parent_id, 0u)
        << "post-drop checkpoint must be full";
    // Every installed checkpoint must still resolve (no holes in chains).
    for (const ManifestEntry& e : manifest.entries()) {
      EXPECT_EQ(load_checkpoint(env, "cp", e.id), states[e.id - 1]) << e.id;
    }
    const auto outcome = recover_latest(env, "cp");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->step, 6u);
    EXPECT_EQ(outcome->state, states.back());
  }
}

TEST(Checkpointer, DroppedWriteWithInFlightChildrenNeverAdvertisesHoles) {
  // Same injected failure, but WITHOUT per-step flushes: the pipeline
  // thread is held inside checkpoint 3 while its delta children 4..7
  // (kPipelineDepth of them) fill the queue behind it, then 3 fails. The
  // children resolve to nothing and must be dropped before their files
  // open; the next checkpoint the trainer builds waits for room behind
  // them, so it is built after the drop and must be full.
  constexpr std::uint64_t kHeld = 3;
  constexpr std::uint64_t kLastChild = kHeld + Checkpointer::kPipelineDepth;
  constexpr std::uint64_t kAfter = kLastChild + 1;
  io::MemEnv mem;
  GateCheckpointWriteEnv env(mem, kHeld);
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.async = true;
  policy.retention.keep_last = 0;
  policy.full_every = 100;
  std::vector<qnn::TrainingState> states;
  const auto checkpoint = [&states](Checkpointer& ck, std::uint64_t step) {
    states.push_back(make_state(step, 3, 2));
    ck.checkpoint_now(states.back());
  };
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= kHeld; ++step) {
      checkpoint(ck, step);
    }
    env.wait_entered();  // the pipeline holds 3's container open
    const double blocked = ck.stats().submit_blocked_seconds;
    for (std::uint64_t step = kHeld + 1; step <= kLastChild; ++step) {
      checkpoint(ck, step);
    }
    EXPECT_EQ(ck.stats().submit_blocked_seconds, blocked)
        << "the children found room behind 3";
    env.release();
    checkpoint(ck, kAfter);
    ck.flush();
    const auto stats = ck.stats();
    EXPECT_EQ(stats.checkpoints, kAfter);
    EXPECT_EQ(stats.dropped_writes, 1 + Checkpointer::kPipelineDepth);
    EXPECT_EQ(stats.writer_failures, 1u);
  }
  const auto manifest = Manifest::load(env, "cp");
  for (std::uint64_t id = kHeld; id <= kLastChild; ++id) {
    EXPECT_EQ(manifest.find(id), nullptr) << id;
    EXPECT_FALSE(env.exists("cp/" + checkpoint_file_name(id))) << id;
    if (id != kHeld) {
      EXPECT_FALSE(env.opened("cp/" + checkpoint_file_name(id))) << id;
    }
  }
  const ManifestEntry* after_drop = manifest.find(kAfter);
  ASSERT_NE(after_drop, nullptr);
  EXPECT_EQ(after_drop->parent_id, 0u) << "post-drop checkpoint must be full";
  for (const ManifestEntry& e : manifest.entries()) {
    EXPECT_EQ(load_checkpoint(env, "cp", e.id), states[e.id - 1]) << e.id;
  }
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, kAfter);
  EXPECT_EQ(outcome->state, states.back());
}

TEST(Checkpointer, AsyncIncrementalChainConsistent) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = Strategy::kIncremental;
  policy.every_steps = 1;
  policy.async = true;
  policy.retention.keep_last = 0;
  policy.full_every = 3;
  std::vector<qnn::TrainingState> states;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 9; ++step) {
      states.push_back(make_state(step, 3, 2));
      ck.maybe_checkpoint(states.back());
    }
    ck.flush();
  }
  for (std::uint64_t id = 1; id <= 9; ++id) {
    EXPECT_EQ(load_checkpoint(env, "cp", id), states[id - 1]) << id;
  }
}

// ---------- state codec ----------

TEST(StateCodec, RoundTripAllSections) {
  const auto state = make_state(13, 3, 3);
  const auto sections =
      state_to_sections(state, /*include_simulator=*/true,
                        codec::CodecId::kRaw);
  EXPECT_EQ(sections.size(), 7u);
  EXPECT_EQ(sections_to_state(sections), state);
}

TEST(StateCodec, MissingRequiredSectionThrows) {
  const auto state = make_state(13);
  auto sections = state_to_sections(state, false, codec::CodecId::kRaw);
  sections.erase(sections.begin());  // drop meta
  EXPECT_THROW(sections_to_state(sections), CorruptCheckpoint);
}

TEST(StateCodec, UnresolvedDeltaRejected) {
  const auto state = make_state(13);
  auto sections = state_to_sections(state, false, codec::CodecId::kRaw);
  sections[1].flags |= kSectionFlagDelta;
  EXPECT_THROW(sections_to_state(sections), CorruptCheckpoint);
}

/// Sections of make_state(13) whose params payload is replaced by
/// `count` followed by `raw_tail`: the array bytes after the count.
std::vector<Section> sections_with_params(std::uint64_t count,
                                          const Bytes& raw_tail) {
  auto sections =
      state_to_sections(make_state(13), false, codec::CodecId::kRaw);
  Bytes& params = sections[1].payload;
  EXPECT_EQ(sections[1].kind, SectionKind::kParams);
  params.clear();
  util::put_le<std::uint64_t>(params, count);
  params.insert(params.end(), raw_tail.begin(), raw_tail.end());
  return sections;
}

TEST(StateCodec, ArrayWithTrailingElementRejected) {
  // Two declared elements, three present: a state nobody checkpointed.
  Bytes three;
  util::put_le<double>(three, 1.0);
  util::put_le<double>(three, 2.0);
  util::put_le<double>(three, 3.0);
  EXPECT_THROW(sections_to_state(sections_with_params(2, three)),
               CorruptCheckpoint);
  three.resize(16);
  EXPECT_EQ(sections_to_state(sections_with_params(2, three)).params,
            (std::vector<double>{1.0, 2.0}));
}

TEST(StateCodec, ArrayWithRaggedTailRejected) {
  Bytes ragged;
  util::put_le<double>(ragged, 1.0);
  util::put_le<double>(ragged, 2.0);
  ragged.insert(ragged.end(), {0xAA, 0xBB, 0xCC});  // off the element grid
  EXPECT_THROW(sections_to_state(sections_with_params(2, ragged)),
               CorruptCheckpoint);
}

TEST(StateCodec, ArrayCountLargerThanPayloadRejected) {
  Bytes two;
  util::put_le<double>(two, 1.0);
  util::put_le<double>(two, 2.0);
  EXPECT_THROW(sections_to_state(sections_with_params(5, two)),
               CorruptCheckpoint);
  // A count whose byte size wraps 2^64 back onto the payload's length.
  const std::uint64_t wraps = (std::uint64_t{1} << 61) + 2;
  EXPECT_THROW(sections_to_state(sections_with_params(wraps, two)),
               CorruptCheckpoint);
}

TEST(StateCodec, StrategyNames) {
  EXPECT_EQ(strategy_name(Strategy::kParamsOnly), "params-only");
  EXPECT_EQ(strategy_name(Strategy::kFullState), "full-state");
  EXPECT_EQ(strategy_name(Strategy::kIncremental), "incremental");
}

}  // namespace
}  // namespace qnn::ckpt
