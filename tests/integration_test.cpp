// End-to-end integration tests: train -> checkpoint -> crash -> recover ->
// continue, across strategies, codecs and environments, plus the fault
// matrix guarantees.
#include <gtest/gtest.h>

#include <filesystem>

#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/trainer_hook.hpp"
#include "fault/crash_point.hpp"
#include "io/fault_env.hpp"
#include "io/mem_env.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/executor.hpp"
#include "qnn/loss.hpp"
#include "qnn/trainer.hpp"
#include "sim/pauli.hpp"

namespace qnn {
namespace {

using ckpt::CheckpointPolicy;
using ckpt::Checkpointer;
using ckpt::Strategy;

qnn::TrainerConfig base_config() {
  qnn::TrainerConfig cfg;
  cfg.optimizer = "adam";
  cfg.learning_rate = 0.1;
  cfg.seed = 1234;
  return cfg;
}

qnn::FidelityLoss make_unitary_loss() {
  return qnn::FidelityLoss(qnn::hardware_efficient(2, 1),
                           qnn::make_unitary_learning_data(2, 6, 4, 77));
}

std::vector<double> param_vec(const qnn::Trainer& t) {
  return {t.params().begin(), t.params().end()};
}

/// The flagship property: train with periodic checkpoints, crash, recover
/// from disk into a brand-new process-equivalent trainer, continue — and
/// end bit-identical to an uninterrupted run. Parameterised over strategy
/// and codec.
struct E2ECase {
  Strategy strategy;
  codec::CodecId codec;
  bool async;
};

class EndToEndResume : public ::testing::TestWithParam<E2ECase> {};

TEST_P(EndToEndResume, CrashRecoverContinueIsBitExact) {
  const E2ECase tc = GetParam();
  constexpr std::uint64_t kTotalSteps = 24;
  constexpr std::uint64_t kCrashStep = 17;

  // Reference: uninterrupted run.
  qnn::FidelityLoss ref_loss = make_unitary_loss();
  qnn::Trainer reference(ref_loss, base_config());
  reference.run(kTotalSteps);

  io::MemEnv env;
  CheckpointPolicy policy;
  policy.strategy = tc.strategy;
  policy.codec = tc.codec;
  policy.every_steps = 5;
  policy.retention.keep_last = 3;
  policy.full_every = 2;
  policy.async = tc.async;

  // Phase 1: train until the injected crash.
  {
    qnn::FidelityLoss loss = make_unitary_loss();
    qnn::Trainer trainer(loss, base_config());
    Checkpointer ck(env, "cp", policy);
    EXPECT_THROW(
        trainer.run(kTotalSteps,
                    fault::crash_at(kCrashStep,
                                    ckpt::checkpointing_callback(trainer, ck))),
        fault::SimulatedCrash);
    ck.flush();
  }

  // Phase 2: "new process" — fresh trainer, recover, finish the budget.
  {
    qnn::FidelityLoss loss = make_unitary_loss();
    qnn::Trainer trainer(loss, base_config());
    const auto outcome = ckpt::resume_or_start(env, "cp", trainer);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->step, 15u);  // last multiple of 5 before 17
    EXPECT_EQ(trainer.step(), 15u);

    Checkpointer ck(env, "cp", policy);
    trainer.run(kTotalSteps - trainer.step(),
                ckpt::checkpointing_callback(trainer, ck));
    ck.flush();

    EXPECT_EQ(trainer.step(), kTotalSteps);
    EXPECT_EQ(param_vec(trainer), param_vec(reference));
    EXPECT_EQ(trainer.loss_history(), reference.loss_history());
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategyCodecGrid, EndToEndResume,
    ::testing::Values(
        E2ECase{Strategy::kParamsOnly, codec::CodecId::kRaw, false},
        E2ECase{Strategy::kParamsOnly, codec::CodecId::kLz, false},
        E2ECase{Strategy::kFullState, codec::CodecId::kLz, false},
        E2ECase{Strategy::kFullState, codec::CodecId::kDeltaRle, false},
        E2ECase{Strategy::kIncremental, codec::CodecId::kRle, false},
        E2ECase{Strategy::kIncremental, codec::CodecId::kLz, false},
        E2ECase{Strategy::kParamsOnly, codec::CodecId::kLz, true},
        E2ECase{Strategy::kIncremental, codec::CodecId::kLz, true}),
    [](const auto& info) {
      std::string n = ckpt::strategy_name(info.param.strategy) + "_" +
                      codec::codec_name(info.param.codec) +
                      (info.param.async ? "_async" : "_sync");
      for (char& c : n) {
        if (c == '-' || c == '+') {
          c = '_';
        }
      }
      return n;
    });

TEST(EndToEnd, RepeatedCrashesStillConverge) {
  // Crash after every few steps; resume each time; the job must still
  // finish with the exact same result as the uninterrupted run.
  constexpr std::uint64_t kTotalSteps = 20;
  qnn::FidelityLoss ref_loss = make_unitary_loss();
  qnn::Trainer reference(ref_loss, base_config());
  reference.run(kTotalSteps);

  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 2;
  policy.strategy = Strategy::kIncremental;
  policy.full_every = 3;

  int crashes = 0;
  while (true) {
    qnn::FidelityLoss loss = make_unitary_loss();
    qnn::Trainer trainer(loss, base_config());
    ckpt::resume_or_start(env, "cp", trainer);
    if (trainer.step() >= kTotalSteps) {
      EXPECT_EQ(param_vec(trainer), param_vec(reference));
      break;
    }
    Checkpointer ck(env, "cp", policy);
    const std::uint64_t crash_step =
        std::min<std::uint64_t>(trainer.step() + 3, kTotalSteps);
    try {
      trainer.run(kTotalSteps - trainer.step(),
                  fault::crash_at(crash_step,
                                  ckpt::checkpointing_callback(trainer, ck)));
      // Reached the end without crashing (crash_step == kTotalSteps).
      ck.checkpoint_now(trainer.capture());
    } catch (const fault::SimulatedCrash&) {
      ++crashes;
    }
    ASSERT_LT(crashes, 100) << "not making progress";
  }
  EXPECT_GT(crashes, 3);
}

TEST(EndToEnd, StepCallbackJournalsTheStepsBetweenInstalls) {
  // With the journal on, the steps that are not due are exactly the ones
  // it logs, so the step callback must hand every step over.
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 5;
  policy.wal.enable = true;
  policy.wal.group_commit_steps = 1;
  qnn::FidelityLoss loss = make_unitary_loss();
  qnn::Trainer trainer(loss, base_config());
  {
    Checkpointer ck(env, "cp", policy);
    trainer.run(8, ckpt::checkpointing_callback(trainer, ck));
    EXPECT_EQ(ck.stats().checkpoints, 1u);
    EXPECT_EQ(ck.stats().wal_records, 3u);  // steps 6, 7 and 8
  }
  const auto outcome = ckpt::recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 8u);
  EXPECT_TRUE(outcome->state == trainer.capture());
}

TEST(EndToEnd, ColdStartWhenNoCheckpointExists) {
  io::MemEnv env;
  qnn::FidelityLoss loss = make_unitary_loss();
  qnn::Trainer trainer(loss, base_config());
  const auto outcome = ckpt::resume_or_start(env, "cp", trainer);
  EXPECT_FALSE(outcome.has_value());
  EXPECT_EQ(trainer.step(), 0u);
}

TEST(EndToEnd, VqeWorkloadWithNoiseAndShotsResumesBitExact) {
  // The hardest determinism case: RNG-consuming loss (trajectory noise)
  // with SPSA gradients (RNG-consuming estimator).
  auto make_loss = [] {
    qnn::ExpectationLoss::Options opt;
    opt.trajectories = 2;
    opt.noise.depolarizing_1q = 0.01;
    return qnn::ExpectationLoss(qnn::hardware_efficient(2, 1),
                                sim::transverse_field_ising(2, 1.0, 0.8),
                                opt);
  };
  qnn::TrainerConfig cfg = base_config();
  cfg.gradient.method = qnn::GradientMethod::kSpsa;

  qnn::ExpectationLoss ref_loss = make_loss();
  qnn::Trainer reference(ref_loss, cfg);
  reference.run(14);

  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 4;
  {
    qnn::ExpectationLoss loss = make_loss();
    qnn::Trainer trainer(loss, cfg);
    Checkpointer ck(env, "cp", policy);
    EXPECT_THROW(
        trainer.run(14, fault::crash_at(
                            9, ckpt::checkpointing_callback(trainer, ck))),
        fault::SimulatedCrash);
  }
  {
    qnn::ExpectationLoss loss = make_loss();
    qnn::Trainer trainer(loss, cfg);
    ASSERT_TRUE(ckpt::resume_or_start(env, "cp", trainer).has_value());
    EXPECT_EQ(trainer.step(), 8u);
    trainer.run(14 - trainer.step());
    EXPECT_EQ(param_vec(trainer), param_vec(reference));
    EXPECT_EQ(trainer.loss_history(), reference.loss_history());
  }
}

TEST(EndToEnd, PosixEnvRoundTrip) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "qnnckpt_e2e_posix").string();
  fs::remove_all(dir);
  io::PosixEnv env(/*durable=*/false);

  qnn::FidelityLoss loss = make_unitary_loss();
  qnn::Trainer trainer(loss, base_config());
  trainer.run(6);
  CheckpointPolicy policy;
  Checkpointer ck(env, dir, policy);
  ck.checkpoint_now(trainer.capture());

  qnn::FidelityLoss loss2 = make_unitary_loss();
  qnn::Trainer trainer2(loss2, base_config());
  const auto outcome = ckpt::resume_or_start(env, dir, trainer2);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(trainer2.capture(), trainer.capture());
  fs::remove_all(dir);
}

// ---------- fault matrix (T4 guarantees) ----------

TEST(FaultMatrix, NoCorruptCheckpointEverAccepted) {
  // Hammer a training+checkpointing pipeline with torn writes and bit
  // flips on a *non-atomic* writer; recovery must only ever hand back a
  // state that a checkpoint actually contained.
  io::MemEnv base;
  io::FaultSpec spec;
  spec.torn_write_prob = 0.35;
  spec.bit_flip_prob = 0.35;
  spec.fault_atomic_writes = true;  // naive-writer scenario
  io::FaultEnv env(base, spec, 99);

  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;

  qnn::FidelityLoss loss = make_unitary_loss();
  qnn::Trainer trainer(loss, base_config());
  Checkpointer ck(env, "cp", policy);

  std::map<std::uint64_t, qnn::TrainingState> truth;
  for (int i = 0; i < 30; ++i) {
    trainer.step_once();
    const auto state = trainer.capture();
    truth[state.step] = state;
    try {
      ck.maybe_checkpoint(state);
    } catch (const io::WriteCrash&) {
      // writer died mid-checkpoint; training continues next loop
    }
  }

  const auto outcome = ckpt::recover_latest(env, "cp");
  if (outcome.has_value()) {
    ASSERT_TRUE(truth.contains(outcome->step));
    EXPECT_EQ(outcome->state, truth[outcome->step])
        << "recovery returned a state no checkpoint ever contained";
  }
  // With 30 attempts and per-write fault probability ~0.6, at least the
  // statistics should show injected faults.
  EXPECT_GT(env.faults_injected(), 0u);
}

TEST(FaultMatrix, AtomicWriterSurvivesTornWriteInjection) {
  // With the atomic write path (default), injected non-atomic faults do
  // not apply: every recovery must return the newest checkpoint.
  io::MemEnv base;
  io::FaultSpec spec;
  spec.torn_write_prob = 1.0;  // only hits write_file, not atomic installs
  io::FaultEnv env(base, spec, 100);

  CheckpointPolicy policy;
  policy.every_steps = 2;
  qnn::FidelityLoss loss = make_unitary_loss();
  qnn::Trainer trainer(loss, base_config());
  Checkpointer ck(env, "cp", policy);
  trainer.run(10, ckpt::checkpointing_callback(trainer, ck));
  const auto outcome = ckpt::recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 10u);
}

// ---------- mid-circuit executor recovery (F4 code path) ----------

TEST(ExecutorRecovery, SnapshotBeatsRecomputeAndMatchesBitExact) {
  // Deep circuit; snapshot at 70%; restoring + finishing must equal a
  // from-scratch run while applying only 30% of the gates.
  const sim::Circuit circuit = qnn::random_circuit(8, 400, 2024);
  qnn::ResumableExecutor exec(circuit, {});
  const std::size_t snapshot_at = exec.total_ops() * 7 / 10;
  exec.advance(snapshot_at);
  const util::Bytes snap = exec.serialize();

  qnn::ResumableExecutor restored =
      qnn::ResumableExecutor::restore(circuit, snap);
  const std::size_t remaining = restored.total_ops() - restored.next_op();
  EXPECT_EQ(restored.advance(exec.total_ops()), remaining);
  EXPECT_LT(remaining, exec.total_ops() / 2);
  EXPECT_EQ(restored.state(), circuit.run({}));
}

}  // namespace
}  // namespace qnn
