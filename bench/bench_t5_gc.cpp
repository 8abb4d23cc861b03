// T5 — Retention GC: storage bound, reclaim accounting, and crash
// consistency of the collector itself.
//
// Part 1 runs a long incremental checkpoint stream under each retention
// policy and reports the steady-state directory footprint plus the GC
// counters (files deleted, bytes reclaimed, manifest fences).
// Claim shape: retention bounds the directory regardless of stream
// length; byte-budget holds the footprint under the cap; GC cost stays
// in the noise next to encode+write. Each row also prices the restart:
// the bytes a fresh Checkpointer reads to open the final directory. The
// keep-all+dedup row chunks a frozen params tail into packfiles, so its
// open rebuilds the chunk refcounts from every retained container.
//
// Part 2 replays a checkpoint+GC scenario once per (env op, byte offset)
// crash point — the same exhaustive engine as crash_matrix_test — and
// counts invariant violations. Claim shape: zero, at every point.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "io/fault_env.hpp"
#include "io/mem_env.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace qnn;

namespace {

::qnn::qnn::TrainingState make_state(std::uint64_t step,
                                     std::size_t frozen_params) {
  ::qnn::qnn::TrainingState s;
  s.step = step;
  util::Rng rng(4000 + step);
  s.params.resize(64);
  for (double& p : s.params) {
    p = rng.uniform(-3.0, 3.0);
  }
  util::Rng frozen(7);  // the same tail at every step
  for (std::size_t i = 0; i < frozen_params; ++i) {
    s.params.push_back(frozen.uniform(-1.0, 1.0));
  }
  s.optimizer_name = "adam";
  s.optimizer_state.resize(1024);
  for (auto& b : s.optimizer_state) {
    b = static_cast<std::uint8_t>(rng());
  }
  s.rng_state = rng.serialize();
  s.loss_history.assign(std::min<std::size_t>(step, 64), 0.25);
  s.permutation = {0, 1, 2, 3};
  s.workload_tag = "vqe";
  return s;
}

struct PolicyRow {
  const char* name;
  ckpt::RetentionPolicy retention;
  /// Frozen doubles appended to params. When nonzero, sections are cut
  /// into 1 KiB chunks, so checkpoints share the tail's packfiled chunks.
  std::size_t frozen_params = 0;
};

void run_policy(const PolicyRow& row, int checkpoints) {
  io::MemEnv env;
  ckpt::CheckpointPolicy policy;
  policy.strategy = ckpt::Strategy::kIncremental;
  policy.every_steps = 1;
  policy.full_every = 8;
  policy.retention = row.retention;
  if (row.frozen_params > 0) {
    policy.chunk_bytes = 1024;
  }

  double seconds = 0.0;
  ckpt::GcStats gc;
  {
    util::Timer timer;
    ckpt::Checkpointer ck(env, "cp", policy);
    for (int step = 1; step <= checkpoints; ++step) {
      ck.maybe_checkpoint(
          make_state(static_cast<std::uint64_t>(step), row.frozen_params));
    }
    seconds = timer.seconds();
    gc = ck.gc_stats();
  }

  std::uint64_t dir_bytes = 0;
  std::size_t dir_files = 0;
  for (const std::string& name : env.list_dir("cp")) {
    if (ckpt::parse_checkpoint_file_name(name)) {
      dir_bytes += env.file_size("cp/" + name).value_or(0);
      ++dir_files;
    }
  }
  for (const std::string& name : env.list_dir("cp/chunks")) {
    dir_bytes += env.file_size("cp/chunks/" + name).value_or(0);
  }

  // A restart's open of the final directory: the MANIFEST, plus the
  // packfiles' key tables and every retained container when packfiles
  // make the chunk refcounts matter.
  const std::uint64_t read_before = env.bytes_read();
  util::Timer reopen_timer;
  {
    ckpt::Checkpointer reopened(env, "cp", policy);
  }
  const double reopen_ms = reopen_timer.seconds() * 1e3;
  const std::uint64_t reopen_bytes = env.bytes_read() - read_before;

  std::printf("%-14s %6d %9zu %12llu %9llu %14llu %10llu %9llu %8.3f\n",
              row.name, checkpoints, dir_files,
              static_cast<unsigned long long>(dir_bytes),
              static_cast<unsigned long long>(gc.files_deleted),
              static_cast<unsigned long long>(gc.bytes_reclaimed),
              static_cast<unsigned long long>(gc.manifest_rewrites),
              static_cast<unsigned long long>(reopen_bytes), seconds);
  bench::JsonLine("t5")
      .field("policy", row.name)
      .field("checkpoints", checkpoints)
      .field("final_files", dir_files)
      .field("final_bytes", dir_bytes)
      .field("files_deleted", gc.files_deleted)
      .field("bytes_reclaimed", gc.bytes_reclaimed)
      .field("manifest_rewrites", gc.manifest_rewrites)
      .field("budget_violations", gc.budget_violations)
      .field("reopen_bytes_read", reopen_bytes)
      .field("reopen_ms", reopen_ms)
      .field("time_s", seconds)
      .emit();

  // Whatever the policy kept must still recover.
  const auto outcome = ckpt::recover_latest(env, "cp");
  if (!outcome || outcome->step != static_cast<std::uint64_t>(checkpoints)) {
    std::printf("!! %s: newest checkpoint unrecoverable\n", row.name);
  }
}

/// Part 2: exhaustive crash sweep over a checkpoint+GC scenario.
void run_crash_sweep() {
  std::uint64_t violations = 0;

  ckpt::CheckpointPolicy policy;
  policy.strategy = ckpt::Strategy::kIncremental;
  policy.every_steps = 1;
  policy.full_every = 3;
  policy.retention.keep_last = 2;
  policy.retention.gc_batch = 2;

  const auto result = io::enumerate_crash_schedules(
      [] { return std::make_unique<io::MemEnv>(); },
      [&policy](io::CrashScheduleEnv& env) {
        ckpt::Checkpointer ck(env, "cp", policy);
        for (std::uint64_t step = 1; step <= 10; ++step) {
          ck.maybe_checkpoint(make_state(step, 0));
        }
      },
      [&violations](io::Env& base, const io::CrashPlan&) {
        const ckpt::Manifest manifest = ckpt::Manifest::load(base, "cp");
        for (const ckpt::ManifestEntry& e : manifest.entries()) {
          try {
            (void)ckpt::load_checkpoint(base, "cp", e.id);
          } catch (const std::exception&) {
            ++violations;  // advertised entry failed to resolve
          }
        }
        if (!manifest.entries().empty() &&
            !ckpt::recover_latest(base, "cp").has_value()) {
          ++violations;
        }
      },
      /*stride=*/1, /*durable_offsets=*/{0, io::kOpDurable});

  std::printf("\ncrash sweep: %llu ops x 2 offsets = %llu points, "
              "%llu violations\n",
              static_cast<unsigned long long>(result.total_ops),
              static_cast<unsigned long long>(result.points_run),
              static_cast<unsigned long long>(violations));
  bench::JsonLine("t5")
      .field("sweep", "crash")
      .field("ops", result.total_ops)
      .field("points", result.points_run)
      .field("violations", violations)
      .emit();
}

}  // namespace

int main() {
  bench::banner("T5", "retention GC: storage bound + crash consistency");
  std::printf("%-14s %6s %9s %12s %9s %14s %10s %9s %8s\n", "policy",
              "ckpts", "files", "dir_bytes", "deleted", "reclaimed_B",
              "fences", "reopen_B", "time_s");
  bench::rule(100);

  constexpr int kCheckpoints = 300;
  run_policy({"keep-all", {.keep_last = 0}}, kCheckpoints);
  run_policy({"keep-all+dedup", {.keep_last = 0}, 2048}, kCheckpoints);
  run_policy({"keep-5", {.keep_last = 5}}, kCheckpoints);
  run_policy({"keep3+space20", {.keep_last = 3, .step_spacing = 20}},
             kCheckpoints);
  run_policy({"budget-64KiB", {.keep_last = 0, .byte_budget = 64 * 1024}},
             kCheckpoints);
  // Young–Daly-derived spacing: C=1s, MTBF=400s -> tau ~ 28s; at 2s/step
  // that thins history to ~14-step anchors.
  run_policy({"young-daly",
              {.keep_last = 3,
               .ckpt_cost_seconds = 1.0,
               .mtbf_seconds = 400.0,
               .step_seconds = 2.0}},
             kCheckpoints);

  run_crash_sweep();

  std::printf(
      "\nclaim check: bounded policies keep dir_bytes flat as the stream\n"
      "grows; budget holds the footprint under the cap; the crash sweep\n"
      "must report 0 violations.\n");
  return 0;
}
