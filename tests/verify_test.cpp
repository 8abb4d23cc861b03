// Tests for the scrubbing/verification API and circuit fingerprinting.
#include <gtest/gtest.h>

#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/verify.hpp"
#include "io/mem_env.hpp"
#include "obs/metrics.hpp"
#include "obs/observed_env.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/loss.hpp"
#include "qnn/trainer.hpp"
#include "sim/pauli.hpp"

namespace qnn::ckpt {
namespace {

qnn::TrainingState tiny_state(std::uint64_t step) {
  qnn::TrainingState s;
  s.step = step;
  s.params = {0.1, 0.2, 0.3};
  s.optimizer_name = "sgd";
  s.optimizer_state = {1, 2, 3};
  s.rng_state = util::Rng(step).serialize();
  s.loss_history = {0.5};
  s.permutation = {0};
  s.workload_tag = "vqe";
  s.circuit_fingerprint = 0xABCDEF;
  return s;
}

void write_chain(io::Env& env, const std::string& dir, int count,
                 Strategy strategy = Strategy::kFullState) {
  CheckpointPolicy policy;
  policy.strategy = strategy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.full_every = strategy == Strategy::kIncremental ? 10 : 1;
  Checkpointer ck(env, dir, policy);
  for (int step = 1; step <= count; ++step) {
    ck.maybe_checkpoint(tiny_state(static_cast<std::uint64_t>(step)));
  }
}

// ---------- verify_directory ----------

TEST(Verify, HealthyDirectory) {
  io::MemEnv env;
  write_chain(env, "cp", 3);
  const auto report = verify_directory(env, "cp");
  EXPECT_TRUE(report.manifest_present);
  ASSERT_EQ(report.checkpoints.size(), 3u);
  for (const auto& r : report.checkpoints) {
    EXPECT_EQ(r.health, CheckpointHealth::kIntact) << r.id;
  }
  EXPECT_EQ(report.newest_recoverable.value(), 3u);
  EXPECT_TRUE(report.healthy());
  EXPECT_NE(report.summary().find("HEALTHY"), std::string::npos);
}

TEST(Verify, EmptyDirectoryUnhealthy) {
  io::MemEnv env;
  const auto report = verify_directory(env, "nothing");
  EXPECT_FALSE(report.manifest_present);
  EXPECT_TRUE(report.checkpoints.empty());
  EXPECT_FALSE(report.newest_recoverable.has_value());
  EXPECT_FALSE(report.healthy());
}

TEST(Verify, DamagedNewestDetected) {
  io::MemEnv env;
  write_chain(env, "cp", 3);
  env.flip_bit("cp/" + checkpoint_file_name(3), 777);
  const auto report = verify_directory(env, "cp");
  EXPECT_EQ(report.checkpoints[2].health, CheckpointHealth::kDamaged);
  EXPECT_EQ(report.newest_recoverable.value(), 2u);
  EXPECT_FALSE(report.healthy());
}

TEST(Verify, MissingFileDetected) {
  io::MemEnv env;
  write_chain(env, "cp", 3);
  env.remove_file("cp/" + checkpoint_file_name(2));
  const auto report = verify_directory(env, "cp");
  ASSERT_EQ(report.checkpoints.size(), 3u);
  EXPECT_EQ(report.checkpoints[1].health, CheckpointHealth::kMissing);
  EXPECT_FALSE(report.healthy());
  EXPECT_EQ(report.newest_recoverable.value(), 3u);  // 3 is standalone-full
}

TEST(Verify, ChainBrokenDistinctFromDamaged) {
  io::MemEnv env;
  write_chain(env, "cp", 3, Strategy::kIncremental);
  // Damage the chain's root: children are file-intact but chain-broken.
  env.flip_bit("cp/" + checkpoint_file_name(1), 500);
  const auto report = verify_directory(env, "cp");
  EXPECT_EQ(report.checkpoints[0].health, CheckpointHealth::kDamaged);
  EXPECT_EQ(report.checkpoints[1].health, CheckpointHealth::kChainBroken);
  EXPECT_EQ(report.checkpoints[2].health, CheckpointHealth::kChainBroken);
  EXPECT_FALSE(report.newest_recoverable.has_value());
}

TEST(Verify, OrphanFilesReported) {
  io::MemEnv env;
  write_chain(env, "cp", 2);
  // A checkpoint installed without a manifest record (crash window).
  const auto data = env.read_file("cp/" + checkpoint_file_name(2));
  env.write_file_atomic("cp/" + checkpoint_file_name(9), *data);
  const auto report = verify_directory(env, "cp");
  ASSERT_EQ(report.orphan_files.size(), 1u);
  EXPECT_EQ(report.orphan_files[0], checkpoint_file_name(9));
  // Orphans are still verified and recoverable.
  EXPECT_EQ(report.checkpoints.back().id, 9u);
}

/// Writes `n` full checkpoints into `env`'s "cp". Each holds 2,048
/// doubles, 8 of them changing per step, chunked raw at 1 KiB: every
/// checkpoint adds a packfile and shares the rest of its 16 chunks.
void write_shared_chunks(io::Env& env, int n) {
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.codec = codec::CodecId::kRaw;
  policy.chunk_bytes = 1024;
  Checkpointer ck(env, "cp", policy);
  for (int step = 1; step <= n; ++step) {
    qnn::TrainingState s = tiny_state(static_cast<std::uint64_t>(step));
    s.params.assign(2048, 0.25);
    for (std::size_t i = 2040; i < 2048; ++i) {
      s.params[i] = step + 0.001 * static_cast<double>(i);
    }
    ck.maybe_checkpoint(s);
  }
}

/// Preads a scrub of write_shared_chunks(n) takes.
std::uint64_t scrub_preads(int n) {
  io::MemEnv mem;
  write_shared_chunks(mem, n);
  obs::MetricsRegistry metrics;
  obs::ObservedEnv env(mem, metrics);
  const auto report = verify_directory(env, "cp");
  EXPECT_TRUE(report.healthy()) << report.summary();
  return metrics.counter("io.pread.ops").value();
}

TEST(Verify, ScrubPreadsGrowLinearlyInCheckpoints) {
  // The scrub resolves every checkpoint through one chunk store, so each
  // packfile's footer and key table is read once per scrub; a store per
  // checkpoint re-reads all of them per checkpoint, which grows as n^2.
  const std::uint64_t few = scrub_preads(5);
  const std::uint64_t many = scrub_preads(40);
  ASSERT_GT(few, 0u);
  EXPECT_LE(many, 10 * few) << "preads at n=5: " << few << ", n=40: " << many;
}

/// Counts chunk fetches: preads of a packfile that return a whole raw
/// 1 KiB chunk or more. A pack scan's header, footer and key-table
/// reads are shorter.
class ChunkFetchCountingEnv final : public io::ForwardingEnv {
 public:
  using io::ForwardingEnv::ForwardingEnv;

  std::unique_ptr<io::RandomAccessFile> open_ranged(
      const std::string& path) override {
    auto file = base_.open_ranged(path);
    if (file == nullptr || !path.ends_with(".qpak")) {
      return file;
    }
    return std::make_unique<File>(std::move(file), fetches);
  }

  std::uint64_t fetches = 0;

 private:
  class File final : public io::RandomAccessFile {
   public:
    File(std::unique_ptr<io::RandomAccessFile> inner, std::uint64_t& fetches)
        : inner_(std::move(inner)), fetches_(fetches) {}
    [[nodiscard]] std::uint64_t size() const override {
      return inner_->size();
    }
    util::Bytes pread(std::uint64_t offset, std::uint64_t n) override {
      util::Bytes out = inner_->pread(offset, n);
      fetches_ += out.size() >= 1024 ? 1 : 0;
      return out;
    }

   private:
    std::unique_ptr<io::RandomAccessFile> inner_;
    std::uint64_t& fetches_;
  };
};

TEST(Verify, ScrubOfAnIntactDirectoryFetchesEachChunkRefOnce) {
  // A file that loads is intact: the file-local salvage, which fetches
  // every chunk of the file again, runs only for one that does not.
  io::MemEnv mem;
  write_shared_chunks(mem, 5);
  std::uint64_t refs = 0;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    refs += list_chunk_refs(mem, "cp/" + checkpoint_file_name(id)).size();
  }
  ASSERT_EQ(refs, 5u * 16u);
  ChunkFetchCountingEnv env(mem);
  const auto report = verify_directory(env, "cp");
  EXPECT_TRUE(report.healthy()) << report.summary();
  EXPECT_EQ(env.fetches, refs);
}

TEST(Verify, HealthNames) {
  EXPECT_EQ(health_name(CheckpointHealth::kIntact), "intact");
  EXPECT_EQ(health_name(CheckpointHealth::kDamaged), "damaged");
  EXPECT_EQ(health_name(CheckpointHealth::kChainBroken), "chain-broken");
  EXPECT_EQ(health_name(CheckpointHealth::kMissing), "missing");
}

// ---------- circuit fingerprinting ----------

TEST(Fingerprint, StableAndStructureSensitive) {
  const sim::Circuit a1 = qnn::hardware_efficient(3, 2);
  const sim::Circuit a2 = qnn::hardware_efficient(3, 2);
  EXPECT_EQ(a1.fingerprint(), a2.fingerprint());
  EXPECT_NE(a1.fingerprint(), qnn::hardware_efficient(3, 3).fingerprint());
  EXPECT_NE(a1.fingerprint(), qnn::hardware_efficient(4, 2).fingerprint());
  EXPECT_NE(a1.fingerprint(), qnn::strongly_entangling(3, 2).fingerprint());
}

TEST(Fingerprint, SensitiveToFixedAngles) {
  sim::Circuit c1(1), c2(1);
  c1.rx(0, 0.5);
  c2.rx(0, 0.6);
  EXPECT_NE(c1.fingerprint(), c2.fingerprint());
}

TEST(Fingerprint, RoundTripsThroughCheckpoint) {
  io::MemEnv env;
  auto make_loss = [] {
    return qnn::ExpectationLoss(qnn::hardware_efficient(2, 1),
                                sim::transverse_field_ising(2, 1.0, 1.0));
  };
  qnn::TrainerConfig cfg;
  cfg.seed = 5;
  auto loss = make_loss();
  qnn::Trainer trainer(loss, cfg);
  trainer.run(2);
  CheckpointPolicy policy;
  Checkpointer ck(env, "cp", policy);
  ck.checkpoint_now(trainer.capture());

  const auto recovered = recover_latest(env, "cp");
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->state.circuit_fingerprint,
            loss.circuit().fingerprint());
}

TEST(Fingerprint, RestoreRejectsDifferentAnsatz) {
  qnn::TrainerConfig cfg;
  cfg.seed = 6;
  // Two ansaetze with the SAME parameter count but different structure.
  auto l1 = qnn::ExpectationLoss(qnn::hardware_efficient(3, 2),
                                 sim::transverse_field_ising(3, 1.0, 1.0));
  sim::Circuit other(3);
  for (std::size_t i = 0; i < l1.num_params(); ++i) {
    other.rx(i % 3, other.new_param());
  }
  auto l2 = qnn::ExpectationLoss(std::move(other),
                                 sim::transverse_field_ising(3, 1.0, 1.0));
  ASSERT_EQ(l1.num_params(), l2.num_params());

  qnn::Trainer t1(l1, cfg);
  t1.run(1);
  const auto snapshot = t1.capture();
  qnn::Trainer t2(l2, cfg);
  EXPECT_THROW(t2.restore(snapshot), std::runtime_error);
}

TEST(Fingerprint, LegacyZeroFingerprintAccepted) {
  qnn::TrainerConfig cfg;
  cfg.seed = 7;
  auto loss = qnn::ExpectationLoss(qnn::hardware_efficient(2, 1),
                                   sim::transverse_field_ising(2, 1.0, 1.0));
  qnn::Trainer t(loss, cfg);
  t.run(1);
  auto snapshot = t.capture();
  snapshot.circuit_fingerprint = 0;  // legacy (v1 meta) snapshot
  qnn::Trainer t2(loss, cfg);
  EXPECT_NO_THROW(t2.restore(snapshot));
}

}  // namespace
}  // namespace qnn::ckpt
