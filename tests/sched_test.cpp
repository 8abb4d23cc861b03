// Tests for the scheduling layer: preemption processes, Young–Daly model,
// discrete-event queue simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "fault/preemption.hpp"
#include "sched/queue_sim.hpp"
#include "sched/young_daly.hpp"
#include "tests/support/running_stats.hpp"

namespace qnn::sched {
namespace {

// ---------- preemption processes ----------

TEST(Preemption, PoissonMeanMatchesMtbf) {
  util::Rng rng(1);
  fault::PoissonPreemption p(120.0);
  util::RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(p.next_interval(rng));
  }
  EXPECT_NEAR(stats.mean(), 120.0, 2.5);
  EXPECT_EQ(p.mtbf(), 120.0);
}

TEST(Preemption, PoissonRejectsBadMtbf) {
  EXPECT_THROW(fault::PoissonPreemption(0.0), std::invalid_argument);
  EXPECT_THROW(fault::PoissonPreemption(-1.0), std::invalid_argument);
}

TEST(Preemption, DeterministicIsConstant) {
  util::Rng rng(2);
  fault::DeterministicPreemption p(60.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(p.next_interval(rng), 60.0);
  }
}

TEST(Preemption, TraceReplaysThenNeverFails) {
  util::Rng rng(3);
  fault::TracePreemption p({10.0, 20.0, 30.0});
  EXPECT_EQ(p.next_interval(rng), 10.0);
  EXPECT_EQ(p.next_interval(rng), 20.0);
  EXPECT_EQ(p.next_interval(rng), 30.0);
  EXPECT_TRUE(std::isinf(p.next_interval(rng)));
  EXPECT_NEAR(p.mtbf(), 20.0, 1e-12);
  p.rewind();
  EXPECT_EQ(p.next_interval(rng), 10.0);
}

TEST(Preemption, TraceRejectsNegative) {
  EXPECT_THROW(fault::TracePreemption({1.0, -2.0}), std::invalid_argument);
}

TEST(Preemption, NoPreemptionIsInfinite) {
  util::Rng rng(4);
  fault::NoPreemption p;
  EXPECT_TRUE(std::isinf(p.next_interval(rng)));
}

// ---------- Young–Daly ----------

TEST(YoungDaly, KnownValue) {
  // C=60s, M=24h: tau = sqrt(2*60*86400) = sqrt(10368000) ~ 3219.94s
  EXPECT_NEAR(young_interval(60.0, 86400.0), std::sqrt(10368000.0), 1e-9);
}

TEST(YoungDaly, DalyCloseToYoungForSmallCost) {
  const double y = young_interval(1.0, 10000.0);
  const double d = daly_interval(1.0, 10000.0);
  EXPECT_NEAR(d / y, 1.0, 0.02);
}

TEST(YoungDaly, DalyClampsWhenCostHuge) {
  EXPECT_EQ(daly_interval(100.0, 10.0), 10.0);
}

TEST(YoungDaly, SpacingStepsConvertsIntervalToSteps) {
  // C=2, M=100 -> tau = sqrt(400) = 20s; at 0.5s/step that is 40 steps.
  EXPECT_EQ(young_spacing_steps(2.0, 100.0, 0.5), 40u);
  // Never below one step.
  EXPECT_EQ(young_spacing_steps(2.0, 100.0, 1e9), 1u);
  // Unconfigured inputs disable spacing instead of throwing.
  EXPECT_EQ(young_spacing_steps(0.0, 100.0, 0.5), 0u);
  EXPECT_EQ(young_spacing_steps(2.0, 0.0, 0.5), 0u);
  EXPECT_EQ(young_spacing_steps(2.0, 100.0, 0.0), 0u);
}

TEST(YoungDaly, RejectsBadArguments) {
  EXPECT_THROW(young_interval(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(young_interval(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(expected_makespan(0.0, 1.0, 1.0, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(expected_makespan(1.0, 1.0, -1.0, 0.0, 1.0),
               std::invalid_argument);
}

TEST(YoungDaly, MakespanApproachesWorkWhenFailuresRare) {
  // MTBF >> work: overhead only from checkpoints.
  const double t = expected_makespan(3600.0, 600.0, 1.0, 5.0, 1e9);
  EXPECT_NEAR(t, 3600.0 + 6.0, 0.1);  // 6 segments x 1s checkpoint
}

TEST(YoungDaly, OptimalIntervalBeatsNeighbours) {
  const double c = 5.0, m = 600.0, w = 7200.0, r = 10.0;
  const double tau = young_interval(c, m);
  const double at_opt = expected_makespan(w, tau, c, r, m);
  EXPECT_LT(at_opt, expected_makespan(w, tau / 4, c, r, m));
  EXPECT_LT(at_opt, expected_makespan(w, tau * 4, c, r, m));
}

TEST(YoungDaly, NoCheckpointDivergesAsMtbfShrinks) {
  const double w = 3600.0;
  const double slow = expected_makespan_no_checkpoint(w, 5.0, 10000.0);
  const double fast = expected_makespan_no_checkpoint(w, 5.0, 600.0);
  EXPECT_GT(fast, slow * 10.0);
}

TEST(YoungDaly, OverheadFractionPositive) {
  EXPECT_GT(overhead_fraction(3600.0, 300.0, 5.0, 5.0, 1800.0), 0.0);
}

// ---------- queue simulator ----------

TEST(QueueSim, NoFailuresNoCheckpointIsJustWork) {
  util::Rng rng(5);
  fault::NoPreemption never;
  JobSpec spec;
  spec.work_seconds = 100.0;
  const SimResult r = simulate_preemptible_job(spec, never, rng);
  EXPECT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.makespan, 100.0);
  EXPECT_EQ(r.preemptions, 0u);
  EXPECT_DOUBLE_EQ(r.wasted_seconds, 0.0);
}

TEST(QueueSim, CheckpointOverheadAccounted) {
  util::Rng rng(6);
  fault::NoPreemption never;
  JobSpec spec;
  spec.work_seconds = 100.0;
  spec.ckpt_interval = 10.0;
  spec.ckpt_cost = 1.0;
  const SimResult r = simulate_preemptible_job(spec, never, rng);
  EXPECT_TRUE(r.completed);
  // 9 checkpoints (completion needs no final one).
  EXPECT_EQ(r.checkpoints, 9u);
  EXPECT_DOUBLE_EQ(r.makespan, 109.0);
}

TEST(QueueSim, DeterministicPreemptionWithoutCheckpointNeverFinishes) {
  util::Rng rng(7);
  fault::DeterministicPreemption period(50.0);
  JobSpec spec;
  spec.work_seconds = 100.0;  // needs 100s but dies every 50s
  const SimResult r = simulate_preemptible_job(spec, period, rng, 10000.0);
  EXPECT_FALSE(r.completed);
  EXPECT_GT(r.preemptions, 100u);
  EXPECT_GT(r.wasted_seconds, 9000.0);
}

TEST(QueueSim, CheckpointingRescuesSameJob) {
  util::Rng rng(8);
  fault::DeterministicPreemption period(50.0);
  JobSpec spec;
  spec.work_seconds = 100.0;
  spec.ckpt_interval = 10.0;
  spec.ckpt_cost = 1.0;
  spec.recovery_cost = 2.0;
  const SimResult r = simulate_preemptible_job(spec, period, rng, 10000.0);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.preemptions, 0u);
  EXPECT_LT(r.makespan, 400.0);
}

TEST(QueueSim, QueueWaitCounted) {
  util::Rng rng(9);
  fault::DeterministicPreemption period(30.0);
  JobSpec spec;
  spec.work_seconds = 50.0;
  spec.ckpt_interval = 5.0;
  spec.ckpt_cost = 0.5;
  spec.queue_wait_mean = 20.0;
  const SimResult r = simulate_preemptible_job(spec, period, rng, 1e6);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.queue_seconds, 0.0);
  EXPECT_GT(r.makespan, r.useful_seconds + r.queue_seconds);
}

TEST(QueueSim, AccountingIdentityHolds) {
  util::Rng rng(10);
  fault::PoissonPreemption failures(80.0);
  JobSpec spec;
  spec.work_seconds = 200.0;
  spec.ckpt_interval = 15.0;
  spec.ckpt_cost = 1.5;
  spec.recovery_cost = 3.0;
  spec.queue_wait_mean = 10.0;
  for (int trial = 0; trial < 200; ++trial) {
    const SimResult r = simulate_preemptible_job(spec, failures, rng, 1e7);
    ASSERT_TRUE(r.completed);
    // makespan >= useful + surviving checkpoint cost + queueing.
    ASSERT_GE(r.makespan + 1e-9,
              r.useful_seconds + r.ckpt_seconds + r.queue_seconds);
  }
}

TEST(QueueSim, MeanMakespanMatchesDalyPrediction) {
  // The discrete-event simulator should land near Daly's closed form.
  const double w = 2000.0, c = 2.0, m = 300.0, r_cost = 4.0;
  const double tau = young_interval(c, m);
  util::Rng rng(11);
  fault::PoissonPreemption failures(m);
  JobSpec spec;
  spec.work_seconds = w;
  spec.ckpt_interval = tau;
  spec.ckpt_cost = c;
  spec.recovery_cost = r_cost;
  const double simulated = mean_makespan(spec, failures, rng, 400, 1e8);
  const double predicted = expected_makespan(w, tau, c, r_cost, m);
  EXPECT_NEAR(simulated / predicted, 1.0, 0.15);
}

TEST(QueueSim, ShorterMtbfIncreasesMakespan) {
  JobSpec spec;
  spec.work_seconds = 500.0;
  spec.ckpt_interval = 25.0;
  spec.ckpt_cost = 1.0;
  spec.recovery_cost = 2.0;
  util::Rng rng(12);
  fault::PoissonPreemption fast(100.0);
  fault::PoissonPreemption slow(10000.0);
  const double mk_fast = mean_makespan(spec, fast, rng, 200, 1e8);
  const double mk_slow = mean_makespan(spec, slow, rng, 200, 1e8);
  EXPECT_GT(mk_fast, mk_slow);
}

TEST(QueueSim, RejectsZeroWork) {
  util::Rng rng(13);
  fault::NoPreemption never;
  JobSpec spec;
  spec.work_seconds = 0.0;
  EXPECT_THROW(simulate_preemptible_job(spec, never, rng),
               std::invalid_argument);
  EXPECT_THROW(mean_makespan(spec, never, rng, 0), std::invalid_argument);
}

/// Property sweep: with checkpointing, expected makespan is bounded and
/// completion always reached for sane parameters.
class QueueSimMtbfSweep : public ::testing::TestWithParam<double> {};

TEST_P(QueueSimMtbfSweep, CompletesUnderCheckpointing) {
  const double mtbf = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(mtbf));
  fault::PoissonPreemption failures(mtbf);
  JobSpec spec;
  spec.work_seconds = 300.0;
  spec.ckpt_interval = std::max(1.0, young_interval(1.0, mtbf));
  spec.ckpt_cost = 1.0;
  spec.recovery_cost = 2.0;
  for (int i = 0; i < 20; ++i) {
    const SimResult r = simulate_preemptible_job(spec, failures, rng, 1e9);
    ASSERT_TRUE(r.completed) << "mtbf " << mtbf;
  }
}

INSTANTIATE_TEST_SUITE_P(MtbfGrid, QueueSimMtbfSweep,
                         ::testing::Values(20.0, 60.0, 180.0, 600.0, 3600.0));

}  // namespace
}  // namespace qnn::sched
