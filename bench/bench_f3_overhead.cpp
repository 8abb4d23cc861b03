// F3 — Runtime overhead of checkpointing vs interval, sync vs async.
//
// A fixed VQE training run (n = 8, SPSA steps) with checkpointing every
// k steps under three modes: none / synchronous / asynchronous. Reports
// wall time and overhead relative to the no-checkpoint baseline.
// Claim shape: sync overhead grows as 1/interval; async hides nearly all
// of the write latency behind compute (residual = encode + submit).
//
// The no-checkpoint baseline (every overhead_pct divides by it) and the
// observability ratio come from runs of a few tens of milliseconds, so
// each is the median of kRepeats runs (the ratio's runs alternate off and
// on) and is printed with its quartiles.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/trainer_hook.hpp"
#include "obs/metrics.hpp"
#include "obs/observed_env.hpp"
#include "obs/trace.hpp"
#include "qnn/executor.hpp"
#include "io/env.hpp"
#include "util/timer.hpp"

using namespace qnn;

namespace {

constexpr std::size_t kQubits = 8;
constexpr std::size_t kLayers = 3;
constexpr std::size_t kSteps = 120;
constexpr int kRepeats = 7;

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles of `xs`, interpolating linearly between order statistics.
Quartiles quartiles(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const auto at = [&xs](double p) {
    const double pos = p * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

double run_once(std::uint64_t interval, bool async, bool enabled,
                ckpt::Checkpointer::Stats* stats_out) {
  bench::ScratchDir dir("qnnckpt_f3");
  io::PosixEnv env(/*durable=*/true);
  auto loss = bench::make_vqe_loss(kQubits, kLayers);
  ::qnn::qnn::Trainer trainer(loss, bench::fast_config());

  util::Timer timer;
  if (!enabled) {
    trainer.run(kSteps);
    return timer.seconds();
  }
  ckpt::CheckpointPolicy policy;
  policy.strategy = ckpt::Strategy::kFullState;
  policy.every_steps = interval;
  policy.async = async;
  ckpt::Checkpointer ck(env, dir.path(), policy);
  trainer.run(kSteps, [&](const ::qnn::qnn::StepInfo&) {
    ::qnn::qnn::TrainingState st = trainer.capture();
    // Persist a simulator snapshot too (the expensive component).
    ::qnn::qnn::ResumableExecutor exec(loss.circuit(), trainer.params());
    exec.finish();
    st.simulator_state = exec.serialize();
    ck.maybe_checkpoint(st);
    return true;
  });
  ck.flush();
  const double elapsed = timer.seconds();
  if (stats_out) {
    *stats_out = ck.stats();
  }
  return elapsed;
}

/// The same checkpointed workload with the full observability stack
/// mounted (ObservedEnv per-op accounting, span tracing, the caller's
/// registry) or with the opt-in parts off (null pointers: no ObservedEnv,
/// no tracer, and the Checkpointer counts and times into a registry of
/// its own, as it always does).
double run_observed(std::uint64_t interval, obs::MetricsRegistry* registry,
                    obs::Tracer* tracer) {
  bench::ScratchDir dir("qnnckpt_f3_obs");
  io::PosixEnv posix(/*durable=*/true);
  std::optional<obs::ObservedEnv> observed;
  io::Env* env = &posix;
  if (registry != nullptr) {
    observed.emplace(posix, *registry);
    env = &*observed;
  }
  auto loss = bench::make_vqe_loss(kQubits, kLayers);
  ::qnn::qnn::Trainer trainer(loss, bench::fast_config());

  util::Timer timer;
  ckpt::CheckpointPolicy policy;
  policy.strategy = ckpt::Strategy::kFullState;
  policy.every_steps = interval;
  policy.metrics = registry;
  policy.tracer = tracer;
  ckpt::Checkpointer ck(*env, dir.path(), policy);
  trainer.run(kSteps, [&](const ::qnn::qnn::StepInfo&) {
    ::qnn::qnn::TrainingState st = trainer.capture();
    ::qnn::qnn::ResumableExecutor exec(loss.circuit(), trainer.params());
    exec.finish();
    st.simulator_state = exec.serialize();
    ck.maybe_checkpoint(st);
    return true;
  });
  ck.flush();
  return timer.seconds();
}

}  // namespace

int main() {
  bench::banner("F3", "training overhead vs checkpoint interval (sync/async)");

  std::vector<double> baseline_runs;
  for (int r = 0; r < kRepeats; ++r) {
    baseline_runs.push_back(run_once(0, false, false, nullptr));
  }
  const Quartiles base = quartiles(baseline_runs);
  const double baseline = base.median;
  std::printf(
      "baseline (no checkpointing): %.3f s for %zu steps (median of %d, "
      "q1 %.3f, q3 %.3f)\n\n",
      baseline, kSteps, kRepeats, base.q1, base.q3);
  // wr|bp_s: sync rows show trainer-thread write time; async rows show
  // backpressure stall (the background write itself is off-thread and
  // reported only in the RESULT JSON).
  std::printf("%-10s %-6s %10s %10s %8s %10s %10s %10s %10s\n", "interval",
              "mode", "time_s", "ovh_%", "ckpts", "snap_s", "encode_s",
              "wr|bp_s", "stall_s");
  bench::rule(94);

  for (std::uint64_t interval : {1, 2, 5, 10, 25, 50}) {
    for (bool async : {false, true}) {
      ckpt::Checkpointer::Stats stats;
      const double t = run_once(interval, async, true, &stats);
      const double ovh = (t - baseline) / baseline * 100.0;
      // stall_s = everything the trainer thread paid for checkpointing.
      // Sync: snapshot + full encode + write + install. Async: snapshot +
      // rare backpressure — the pipeline owns encode (and CRC), the
      // write and the install.
      const double stall = stats.trainer_stall_seconds();
      std::printf("%-10llu %-6s %10.3f %10.1f %8llu %10.4f %10.4f %10.4f "
                  "%10.4f\n",
                  static_cast<unsigned long long>(interval),
                  async ? "async" : "sync", t, ovh,
                  static_cast<unsigned long long>(stats.checkpoints),
                  stats.snapshot_seconds,
                  async ? stats.pipeline_encode_seconds
                        : stats.encode_seconds,
                  async ? stats.submit_blocked_seconds
                        : stats.sync_write_seconds,
                  stall);
      bench::JsonLine("f3")
          .field("interval", interval)
          .field("mode", async ? "async" : "sync")
          .field("time_s", t)
          .field("overhead_pct", ovh)
          .field("checkpoints", stats.checkpoints)
          .field("snapshot_s", stats.snapshot_seconds)
          .field("encode_s", stats.encode_seconds)
          .field("pipeline_encode_s", stats.pipeline_encode_seconds)
          .field("write_s", stats.sync_write_seconds)
          .field("install_s", stats.install_seconds)
          .field("submit_blocked_s", stats.submit_blocked_seconds)
          .field("trainer_stall_s", stall)
          .emit();
    }
  }

  std::printf(
      "\nclaim check: sync stall ~ (snapshot+encode+write+install)/interval\n"
      "per step and falls off as the interval grows; async keeps only the\n"
      "section snapshot (and rare backpressure) on the training thread —\n"
      "encode, chunk compression, CRC, the write and the install all run\n"
      "on the pipeline.\n");

  // Observability overhead: identical sync workload with the full obs
  // stack mounted vs the opt-in parts off, alternating so each pair sees
  // the same machine. Claim: instrumentation is relaxed-atomic recording,
  // so the enabled run lands within a few percent of the disabled one.
  // Each observed run records into a fresh registry and tracer; the last
  // run's are reported, so the registry row counts one run.
  std::vector<double> off_runs;
  std::vector<double> on_runs;
  std::vector<double> ratios;
  std::optional<obs::MetricsRegistry> registry;
  std::optional<obs::Tracer> tracer;
  for (int r = 0; r < kRepeats; ++r) {
    off_runs.push_back(run_observed(5, nullptr, nullptr));
    registry.emplace();
    tracer.emplace();
    on_runs.push_back(run_observed(5, &*registry, &*tracer));
    ratios.push_back(off_runs.back() > 0.0 ? on_runs.back() / off_runs.back()
                                           : 1.0);
  }
  const Quartiles off = quartiles(off_runs);
  const Quartiles on = quartiles(on_runs);
  const Quartiles ratio = quartiles(ratios);
  std::printf(
      "\nobservability overhead (interval 5, sync, median of %d pairs): "
      "disabled %.3f s, enabled %.3f s, enabled/disabled %.3fx "
      "(q1 %.3f, q3 %.3f)\n",
      kRepeats, off.median, on.median, ratio.median, ratio.q1, ratio.q3);
  bench::JsonLine("f3")
      .field("metrics", "overhead")
      .field("runs", kRepeats)
      .field("disabled_s", off.median)
      .field("enabled_s", on.median)
      .field("enabled_over_disabled", ratio.median)
      .field("enabled_over_disabled_q1", ratio.q1)
      .field("enabled_over_disabled_q3", ratio.q3)
      .emit();
  // The registry snapshot itself is a RESULT line too: counters/gauges/
  // histogram quantiles flatten into gateable metrics downstream.
  std::printf("RESULT %s\n", registry->json("f3").c_str());
  if (const char* trace_path = std::getenv("QNNCKPT_TRACE")) {
    if (trace_path[0] != '\0') {
      tracer->write(trace_path);
      std::printf("trace: %zu event(s) written to %s\n",
                  tracer->event_count(), trace_path);
    }
  }
  return 0;
}
