// F5 — Optimal checkpoint interval: Young–Daly prediction vs discrete-
// event simulation, plus the delta-journal (WAL) recovery column.
//
// For each MTBF, sweep the checkpoint interval around the Young–Daly
// optimum and report (a) Daly's closed-form expected makespan and (b) the
// mean makespan over simulated preemptible runs. Claim shape: the
// simulated curve is U-shaped with its minimum at/near the Young–Daly
// interval, and the model tracks the simulation within ~10-15%.
//
// The WAL column measures the delta journal's real per-record append and
// replay costs on a modeled local-NVMe device (ShapedEnv over MemEnv, so
// the numbers are deterministic and machine-independent) and folds them
// into the first-order per-second overhead rates
//
//   h_plain(tau) = C/tau + (tau/2 + R) / M
//   h_wal(tau)   = C/tau + f/s + (tau/2 * rho + R_wal) / M
//
// where C = install cost, f = per-record append cost, s = step seconds,
// rho = replay-seconds per lost second (p/s), R / R_wal = base recovery
// read costs. Journaling wins once tau > tau* = 2 M (f/s) / (1 - rho):
// above the crossover the journal's per-step tax is cheaper than the
// half-interval of work an interval-only recovery loses.
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/wal.hpp"
#include "fault/preemption.hpp"
#include "io/mem_env.hpp"
#include "sched/queue_sim.hpp"
#include "sched/young_daly.hpp"
#include "tier/shaped_env.hpp"
#include "util/rng.hpp"

using namespace qnn;

namespace {

using ::qnn::qnn::TrainingState;

/// A mid-size training state: 256 params, 4 KB of optimizer moments.
TrainingState wal_state(std::uint64_t step) {
  TrainingState s;
  s.step = step;
  util::Rng rng(101 + step);
  s.params.resize(256);
  for (double& p : s.params) {
    p = rng.uniform(-3.0, 3.0);
  }
  s.optimizer_name = "adam";
  s.optimizer_state.resize(4096);
  for (auto& b : s.optimizer_state) {
    b = static_cast<std::uint8_t>(rng());
  }
  s.rng_state = rng.serialize();
  s.loss_history.assign(step, 0.25);
  s.epoch = step / 100;
  s.cursor = step % 100;
  s.permutation = {0, 1, 2, 3};
  s.workload_tag = "vqe";
  return s;
}

struct WalCosts {
  double install_s = 0.0;      ///< C: one full install, modeled write
  double append_s = 0.0;       ///< f: one journal record, modeled write
  double replay_s = 0.0;       ///< p: one record folded in, modeled read
  double base_recover_s = 0.0; ///< R: resolve the base checkpoint
};

/// Measures the real Checkpointer/WalWriter/replay paths on a modeled
/// local-NVMe ShapedEnv. Deterministic: seeded states, modeled seconds.
WalCosts measure_wal_costs() {
  constexpr std::uint64_t kRecords = 32;
  io::MemEnv mem;
  tier::ShapedEnv env(mem, tier::local_nvme_shape());
  WalCosts costs;

  ckpt::CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.codec = codec::CodecId::kRaw;
  ckpt::Checkpointer ck(env, "cp", policy);
  const auto base = wal_state(1);
  double mark = env.modeled_write_seconds();
  ck.checkpoint_now(base);
  costs.install_s = env.modeled_write_seconds() - mark;

  ckpt::WalPolicy wal;
  wal.max_log_bytes = 0;
  // The journal encodes with the codec a default policy ships, so the
  // modeled append and replay costs are the shipped ones.
  ckpt::WalWriter writer(env, "cp", 1, wal, ckpt::CheckpointPolicy{}.codec,
                         base, false);
  mark = env.modeled_write_seconds();
  for (std::uint64_t step = 2; step <= 1 + kRecords; ++step) {
    writer.log_step(wal_state(step));
  }
  writer.close();
  costs.append_s =
      (env.modeled_write_seconds() - mark) / static_cast<double>(kRecords);

  mark = env.modeled_read_seconds();
  const auto outcome = ckpt::recover_latest(env, "cp");
  const double full_recover_s = env.modeled_read_seconds() - mark;
  if (!outcome || outcome->step != 1 + kRecords) {
    std::fprintf(stderr, "f5: wal replay did not reach the last record\n");
    std::exit(1);
  }

  ckpt::SectionPayloads sections;
  for (auto& sec :
       ckpt::state_to_sections(base, false, codec::CodecId::kRaw)) {
    sections[sec.kind] = ckpt::SectionPayload(sec.kind, std::move(sec.payload));
  }
  mark = env.modeled_read_seconds();
  (void)ckpt::replay_wal(env, "cp", 1, sections);
  const double journal_read_s = env.modeled_read_seconds() - mark;
  costs.replay_s = journal_read_s / static_cast<double>(kRecords);
  costs.base_recover_s = full_recover_s - journal_read_s;
  return costs;
}

}  // namespace

int main() {
  bench::banner("F5", "Young-Daly interval: model vs discrete-event sim");

  constexpr double kWork = 4.0 * 3600.0;   // 4h of failure-free training
  constexpr double kCkptCost = 3.0;        // measured-scale full-state write
  constexpr double kRecovery = 6.0;        // read + rebuild
  constexpr std::size_t kTrials = 300;

  for (double mtbf : {600.0, 1800.0, 7200.0}) {
    const double tau_opt = sched::young_interval(kCkptCost, mtbf);
    std::printf(
        "\nMTBF = %.0f s  (Young-Daly tau* = %.1f s, Daly tau* = %.1f s)\n",
        mtbf, tau_opt, sched::daly_interval(kCkptCost, mtbf));
    std::printf("%-12s %14s %14s %10s\n", "interval_s", "model_s", "sim_s",
                "sim/model");
    bench::rule(54);

    util::Rng rng(static_cast<std::uint64_t>(mtbf) * 7 + 1);
    for (double mult : {0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
      const double tau = tau_opt * mult;
      const double model =
          sched::expected_makespan(kWork, tau, kCkptCost, kRecovery, mtbf);
      fault::PoissonPreemption failures(mtbf);
      sched::JobSpec spec;
      spec.work_seconds = kWork;
      spec.ckpt_interval = tau;
      spec.ckpt_cost = kCkptCost;
      spec.recovery_cost = kRecovery;
      const double sim =
          sched::mean_makespan(spec, failures, rng, kTrials, 1e9);
      std::printf("%-12.1f %14.0f %14.0f %10.3f%s\n", tau, model, sim,
                  sim / model, mult == 1.0 ? "   <-- tau*" : "");
    }

    const double none =
        sched::expected_makespan_no_checkpoint(kWork, kRecovery, mtbf);
    std::printf(
        "no checkpointing: model expected makespan = %.3g s (%.1fx work)\n",
        none, none / kWork);
  }

  std::printf(
      "\nclaim check: each sweep is U-shaped with the minimum at the tau*\n"
      "column; Daly's model tracks simulation within ~15%%; without\n"
      "checkpointing the expected makespan explodes once MTBF < work.\n");

  // ---- delta journal (WAL) column -------------------------------------
  constexpr double kStepSeconds = 0.1;  // training step on the modeled box
  const WalCosts costs = measure_wal_costs();
  const double tax = costs.append_s / kStepSeconds;   // f/s
  const double rho = costs.replay_s / kStepSeconds;   // replay vs recompute
  std::printf(
      "\ndelta journal on modeled local NVMe (deterministic ShapedEnv):\n"
      "  install C = %.3g s   append f = %.3g s/record   replay p = %.3g "
      "s/record\n"
      "  base recovery R = %.3g s   step s = %.3g s   journal tax f/s = "
      "%.3g   rho = p/s = %.3g\n",
      costs.install_s, costs.append_s, costs.replay_s, costs.base_recover_s,
      kStepSeconds, tax, rho);

  std::printf("%-10s %16s %16s %18s\n", "mtbf_s", "crossover_s",
              "h_plain(10)", "h_wal(10)");
  bench::rule(64);
  for (double mtbf : {600.0, 1800.0, 7200.0}) {
    const double crossover = 2.0 * mtbf * tax / (1.0 - rho);
    const auto overhead = [&](double tau, bool wal) {
      const double lost = (wal ? rho : 1.0) * tau / 2.0;
      return costs.install_s / tau + (wal ? tax : 0.0) +
             (lost + costs.base_recover_s) / mtbf;
    };
    std::printf("%-10.0f %16.3g %16.5g %18.5g\n", mtbf, crossover,
                overhead(10.0, false), overhead(10.0, true));
    bench::JsonLine("f5")
        .field("mode", "wal")
        .field("mtbf_s", mtbf)
        .field("crossover_interval_s", crossover)
        .emit();
  }

  // Per-failure loss: an interval-only recovery redoes half an interval
  // of work; the journal replays those steps at rho times the cost. The
  // ratio is MTBF-independent and must stay >> 1 at tau = 10 s.
  constexpr double kTau = 10.0;
  const double lost_plain = kTau / 2.0 + costs.base_recover_s;
  const double lost_wal = kTau / 2.0 * rho + costs.base_recover_s;
  const double advantage = lost_plain / lost_wal;
  std::printf(
      "\nper-failure loss at tau = %.0f s: interval-only %.4g s vs journal "
      "replay %.4g s (%.0fx)\n",
      kTau, lost_plain, lost_wal, advantage);
  bench::JsonLine("f5")
      .field("mode", "wal")
      .field("interval_s", kTau)
      .field("recovery_advantage_x", advantage)
      .emit();
  std::printf(
      "claim check: replayed-steps recovery beats interval-loss recovery\n"
      "for every interval >= 10 s (replay is orders of magnitude cheaper\n"
      "than redoing the lost half-interval), and the overhead crossover\n"
      "tau* sits far below the Young-Daly optimum at every MTBF — at the\n"
      "optimal checkpoint interval, journaling always pays for itself.\n");
  return 0;
}
