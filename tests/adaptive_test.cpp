// Tests for the Young–Daly adaptive checkpoint-interval mode, driven by a
// deterministic fake clock.
#include <gtest/gtest.h>

#include <cmath>

#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "io/mem_env.hpp"
#include "sched/young_daly.hpp"
#include "util/rng.hpp"

namespace qnn::ckpt {
namespace {

qnn::TrainingState make_state(std::uint64_t step) {
  qnn::TrainingState s;
  s.step = step;
  s.params = {1.0, 2.0};
  s.optimizer_name = "sgd";
  s.optimizer_state = {1};
  s.rng_state = util::Rng(1).serialize();
  s.loss_history = {0.1};
  s.permutation = {0};
  s.workload_tag = "vqe";
  return s;
}

/// A controllable clock: the test advances time explicitly.
struct FakeClock {
  double now = 0.0;
  /// Returns a callable bound to this clock.
  std::function<double()> fn() {
    return [this] { return now; };
  }
};

/// Drives a training cadence: each simulated step costs `step_seconds`;
/// each checkpoint write is simulated by advancing the clock when a
/// write stream opens (a whole-buffer write opens one stream, so it is
/// charged once).
class ClockedEnv final : public io::ForwardingEnv {
 public:
  ClockedEnv(io::Env& base, FakeClock& clock, double write_seconds)
      : ForwardingEnv(base), clock_(clock), write_seconds_(write_seconds) {}

  std::unique_ptr<io::WritableFile> new_writable(const std::string& p,
                                                 io::WriteMode mode) override {
    clock_.now += write_seconds_;
    return base_.new_writable(p, mode);
  }

 private:
  FakeClock& clock_;
  double write_seconds_;
};

struct AdaptiveRun {
  std::uint64_t final_interval = 0;
  std::uint64_t checkpoints = 0;
};

AdaptiveRun run_adaptive(double step_seconds, double write_seconds,
                         double mtbf, std::uint64_t total_steps) {
  io::MemEnv mem;
  FakeClock clock;
  ClockedEnv env(mem, clock, write_seconds);

  CheckpointPolicy policy;
  policy.every_steps = 5;  // initial guess, should be re-derived
  policy.retention.keep_last = 0;
  policy.target_mtbf_seconds = mtbf;
  policy.clock = clock.fn();
  Checkpointer ck(env, "cp", policy);

  for (std::uint64_t step = 1; step <= total_steps; ++step) {
    clock.now += step_seconds;  // the "training work"
    ck.maybe_checkpoint(make_state(step));
  }
  return AdaptiveRun{ck.current_interval(), ck.stats().checkpoints};
}

TEST(Adaptive, ConvergesToYoungIntervalInSteps) {
  const double step_s = 1.0;
  const double write_s = 2.0;
  const double mtbf = 10000.0;
  const auto result = run_adaptive(step_s, write_s, mtbf, 2000);
  // One checkpoint = the data file write + the manifest rewrite, i.e. two
  // ClockedEnv writes -> C = 2*write_s; tau = sqrt(2*C*M) in steps.
  const double expect = sched::young_interval(2.0 * write_s, mtbf) / step_s;
  EXPECT_GT(result.final_interval, expect * 0.8);
  EXPECT_LT(result.final_interval, expect * 1.2);
}

TEST(Adaptive, ShorterMtbfMeansShorterInterval) {
  const auto frequent = run_adaptive(1.0, 2.0, 400.0, 2000);
  const auto rare = run_adaptive(1.0, 2.0, 40000.0, 2000);
  EXPECT_LT(frequent.final_interval, rare.final_interval);
  EXPECT_GT(frequent.checkpoints, rare.checkpoints);
}

TEST(Adaptive, ExpensiveCheckpointsWidenInterval) {
  const auto cheap = run_adaptive(1.0, 0.5, 10000.0, 2000);
  const auto costly = run_adaptive(1.0, 8.0, 10000.0, 2000);
  EXPECT_GT(costly.final_interval, cheap.final_interval);
}

TEST(Adaptive, IntervalClampedToMax) {
  io::MemEnv mem;
  FakeClock clock;
  ClockedEnv env(mem, clock, 1.0);
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.target_mtbf_seconds = 1e12;  // absurd: wants a huge interval
  policy.adaptive_max_steps = 50;
  policy.clock = clock.fn();
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 200; ++step) {
    clock.now += 1.0;
    ck.maybe_checkpoint(make_state(step));
  }
  EXPECT_EQ(ck.current_interval(), 50u);
}

TEST(Adaptive, DisabledModeKeepsConfiguredInterval) {
  io::MemEnv mem;
  CheckpointPolicy policy;
  policy.every_steps = 7;
  Checkpointer ck(mem, "cp", policy);
  for (std::uint64_t step = 1; step <= 21; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  EXPECT_EQ(ck.current_interval(), 7u);
  EXPECT_EQ(ck.stats().checkpoints, 3u);
}

TEST(Adaptive, CheckpointsRemainRecoverable) {
  io::MemEnv mem;
  FakeClock clock;
  ClockedEnv env(mem, clock, 0.5);
  CheckpointPolicy policy;
  policy.every_steps = 3;
  policy.target_mtbf_seconds = 100.0;
  policy.clock = clock.fn();
  std::uint64_t last_step = 0;
  {
    Checkpointer ck(env, "cp", policy);
    for (std::uint64_t step = 1; step <= 100; ++step) {
      clock.now += 0.2;
      if (ck.maybe_checkpoint(make_state(step))) {
        last_step = step;
      }
    }
  }
  ASSERT_GT(last_step, 0u);
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, last_step);
}

}  // namespace
}  // namespace qnn::ckpt
