// T4 — Fault-injection robustness matrix.
//
// 200 trials per fault class. Each trial: write a short chain of
// checkpoints, inject the fault, run recovery. Success criteria:
//   * a recovered state must be one that a checkpoint actually contained
//     (no silent corruption), and
//   * whenever any intact checkpoint exists, recovery must return one.
// Claim shape: 100% detection, 0 silently-corrupt acceptances, graceful
// fallback to the newest intact ancestor in every class. Exits 1 when a
// class accepts a silently corrupt state, when a class that keeps an
// intact checkpoint recovers nothing in some trial, or when the
// all-corrupt class recovers anything.
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "io/mem_env.hpp"
#include "util/rng.hpp"

using namespace qnn;

namespace {

::qnn::qnn::TrainingState make_state(std::uint64_t step, std::uint64_t seed) {
  ::qnn::qnn::TrainingState s;
  s.step = step;
  util::Rng rng(seed * 1000 + step);
  s.params.resize(32);
  for (double& p : s.params) {
    p = rng.uniform(-3.0, 3.0);
  }
  s.optimizer_name = "adam";
  s.optimizer_state.resize(512);
  for (auto& b : s.optimizer_state) {
    b = static_cast<std::uint8_t>(rng());
  }
  s.rng_state = rng.serialize();
  s.loss_history.assign(step, 0.25);
  s.permutation = {0, 1, 2};
  s.workload_tag = "vqe";
  return s;
}

struct ClassResult {
  int trials = 0;
  int recovered = 0;        // recovery returned something
  int exact_newest = 0;     // ... the newest checkpoint
  int fell_back = 0;        // ... an older intact one
  int silent_corruption = 0;  // returned a state no checkpoint contained
  int none = 0;             // nothing recoverable
};

using FaultFn = void (*)(io::MemEnv&, util::Rng&);

void fault_bitflip_newest(io::MemEnv& env, util::Rng& rng) {
  env.flip_bit("cp/" + ckpt::checkpoint_file_name(3), rng());
}

void fault_truncate_newest(io::MemEnv& env, util::Rng& rng) {
  const auto size = env.file_size("cp/" + ckpt::checkpoint_file_name(3));
  env.truncate("cp/" + ckpt::checkpoint_file_name(3),
               rng.uniform_u64(*size));
}

void fault_delete_manifest(io::MemEnv& env, util::Rng&) {
  env.remove_file("cp/MANIFEST");
}

void fault_delete_middle(io::MemEnv& env, util::Rng&) {
  env.remove_file("cp/" + ckpt::checkpoint_file_name(2));
}

void fault_corrupt_all(io::MemEnv& env, util::Rng& rng) {
  for (std::uint64_t id = 1; id <= 3; ++id) {
    env.flip_bit("cp/" + ckpt::checkpoint_file_name(id), rng());
  }
}

void fault_bitflip_parent_of_chain(io::MemEnv& env, util::Rng& rng) {
  env.flip_bit("cp/" + ckpt::checkpoint_file_name(2), rng());
}

ClassResult run_class(FaultFn fault, bool incremental, std::uint64_t seed0) {
  ClassResult result;
  for (int trial = 0; trial < 200; ++trial) {
    util::Rng rng(seed0 + static_cast<std::uint64_t>(trial));
    io::MemEnv env;
    ckpt::CheckpointPolicy policy;
    policy.every_steps = 1;
    policy.retention.keep_last = 0;
    if (incremental) {
      policy.strategy = ckpt::Strategy::kIncremental;
      policy.full_every = 5;
    }
    ckpt::Checkpointer ck(env, "cp", policy);
    std::map<std::uint64_t, ::qnn::qnn::TrainingState> truth;
    for (std::uint64_t step = 1; step <= 3; ++step) {
      const auto state =
          make_state(step, seed0 + static_cast<std::uint64_t>(trial));
      truth[step] = state;
      ck.maybe_checkpoint(state);
    }

    fault(env, rng);
    ++result.trials;
    const auto outcome = ckpt::recover_latest(env, "cp");
    if (!outcome.has_value()) {
      ++result.none;
      continue;
    }
    ++result.recovered;
    if (!truth.contains(outcome->step) ||
        !(truth[outcome->step] == outcome->state)) {
      ++result.silent_corruption;
    } else if (outcome->step == 3) {
      ++result.exact_newest;
    } else {
      ++result.fell_back;
    }
  }
  return result;
}

void print_row(const char* name, const ClassResult& r) {
  std::printf("%-26s %7d %10d %8d %9d %9d %16d\n", name, r.trials,
              r.exact_newest, r.fell_back, r.none, r.recovered,
              r.silent_corruption);
}

struct FaultClass {
  const char* name;
  FaultFn fault;
  bool incremental;
  bool keeps_intact;  ///< some checkpoint (with its chain) survives
};

constexpr FaultClass kClasses[] = {
    {"bitflip newest (full)", fault_bitflip_newest, false, true},
    {"bitflip newest (incr)", fault_bitflip_newest, true, true},
    {"truncate newest (full)", fault_truncate_newest, false, true},
    {"truncate newest (incr)", fault_truncate_newest, true, true},
    {"manifest deleted (full)", fault_delete_manifest, false, true},
    {"manifest deleted (incr)", fault_delete_manifest, true, true},
    {"middle ckpt deleted(full)", fault_delete_middle, false, true},
    {"chain parent hit (incr)", fault_bitflip_parent_of_chain, true, true},
    {"all ckpts corrupt (full)", fault_corrupt_all, false, false},
};

}  // namespace

int main() {
  bench::banner("T4", "fault-injection robustness (200 trials per class)");
  std::printf("%-26s %7s %10s %8s %9s %9s %16s\n", "fault class", "trials",
              "newest_ok", "fallback", "none", "recovered",
              "SILENT-CORRUPT");
  bench::rule(92);

  int violations = 0;
  std::uint64_t seed = 1;
  for (const FaultClass& c : kClasses) {
    const ClassResult r = run_class(c.fault, c.incremental, seed++);
    print_row(c.name, r);
    if (r.silent_corruption != 0 ||
        (c.keeps_intact ? r.none : r.recovered) != 0) {
      ++violations;
    }
  }

  std::printf(
      "\nclaim check: SILENT-CORRUPT must be 0 everywhere; fallback picks\n"
      "up whenever the newest file (or its delta chain) is damaged;\n"
      "'none' only when every checkpoint is corrupt.\n"
      "verdict: %s (%d class%s in violation)\n",
      violations == 0 ? "PASS" : "FAIL", violations,
      violations == 1 ? "" : "es");
  return violations == 0 ? 0 : 1;
}
