// T6 — Content-addressed dedup across checkpoints (format v3).
//
// Ten checkpoints of a large parameter state under three content
// regimes, each stored twice: through the content-addressed chunk store
// at 16 KiB chunks ("v3"), and with chunk_bytes at its 1 MiB default,
// above the 256 KiB section, so every checkpoint is stored inline and
// self-contained ("inline", the reference). Reported per run: total
// bytes resident in the directory afterwards, total bytes ever written,
// trainer-visible checkpoint time, and the chunk dedup ratio. Exits
// non-zero when any run's recovery does not return its last checkpoint.
//
// Claim shape: with frozen parameters the v3 store keeps ONE copy of
// the payload plus ten key-table files — a >=5x stored-bytes reduction
// and near-metadata-only writes after the first checkpoint. As content
// entropy rises the reduction decays towards 1x, and for fully random
// payloads dedup is a (small) net loss: the key tables and packfile
// framing are pure overhead. That loss bound is the point of the
// "entropy" row.
#include <cstdio>

#include "bench_util.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "io/mem_env.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace qnn;

namespace {

constexpr std::size_t kParams = 32768;         // 256 KiB of doubles
constexpr std::size_t kChunkBytes = 16 << 10;  // ~17 chunks per section
/// The policy default, above the section: the reference stores inline.
constexpr std::size_t kInlineChunkBytes = std::size_t{1} << 20;
constexpr std::uint64_t kCheckpoints = 10;

enum class Regime { kFrozen, kDrift, kEntropy };

const char* regime_name(Regime r) {
  switch (r) {
    case Regime::kFrozen: return "frozen";
    case Regime::kDrift: return "drift";
    case Regime::kEntropy: return "entropy";
  }
  return "?";
}

/// Parameters at `step`: frozen = identical forever; drift = a 5%
/// contiguous tail moves each step; entropy = everything re-randomised.
::qnn::qnn::TrainingState make_state(Regime regime, std::uint64_t step) {
  ::qnn::qnn::TrainingState s;
  s.step = step;
  s.params.resize(kParams);
  util::Rng frozen(11);
  for (double& p : s.params) {
    p = frozen.uniform(-1.0, 1.0);
  }
  util::Rng moving(100 + step);
  switch (regime) {
    case Regime::kFrozen:
      break;
    case Regime::kDrift:
      for (std::size_t i = kParams - kParams / 20; i < kParams; ++i) {
        s.params[i] = moving.uniform(-1.0, 1.0);
      }
      break;
    case Regime::kEntropy:
      for (double& p : s.params) {
        p = moving.uniform(-1.0, 1.0);
      }
      break;
  }
  s.optimizer_name = "adam";
  s.optimizer_state.assign(256, static_cast<std::uint8_t>(step));
  s.rng_state = util::Rng(step).serialize();
  s.permutation = {0, 1, 2};
  s.workload_tag = "vqe";
  return s;
}

struct RunResult {
  std::uint64_t stored_bytes = 0;   ///< resident in the dir afterwards
  std::uint64_t bytes_written = 0;  ///< total I/O over the run
  double checkpoint_seconds = 0.0;  ///< trainer-visible stall
  double dedup_hit_ratio = 0.0;
  std::uint64_t recovered_step = 0;
};

RunResult run(Regime regime, std::size_t chunk_bytes) {
  io::MemEnv env;
  ckpt::CheckpointPolicy policy;
  policy.strategy = ckpt::Strategy::kFullState;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;  // dedup, not retention, is on trial
  policy.codec = codec::CodecId::kLz;
  policy.chunk_bytes = chunk_bytes;

  RunResult result;
  {
    ckpt::Checkpointer ck(env, "cp", policy);
    util::Timer timer;
    for (std::uint64_t step = 1; step <= kCheckpoints; ++step) {
      ck.checkpoint_now(make_state(regime, step));
    }
    result.checkpoint_seconds = timer.seconds();
    const auto stats = ck.stats();
    result.dedup_hit_ratio =
        stats.chunk_refs == 0
            ? 0.0
            : static_cast<double>(stats.chunks_deduped) /
                  static_cast<double>(stats.chunk_refs);
  }
  for (const std::string& name : env.list_dir("cp")) {
    result.stored_bytes += env.file_size("cp/" + name).value_or(0);
  }
  for (const std::string& name : env.list_dir("cp/chunks")) {
    result.stored_bytes += env.file_size("cp/chunks/" + name).value_or(0);
  }
  result.bytes_written = env.bytes_written();
  if (const auto outcome = ckpt::recover_latest(env, "cp")) {
    result.recovered_step = outcome->step;
  }
  return result;
}

}  // namespace

int main() {
  bench::banner("T6", "content-addressed dedup across checkpoints");

  std::printf("%-8s %-6s %14s %14s %8s %7s %8s\n", "regime", "fmt",
              "stored_bytes", "bytes_written", "ckpt_s", "dedup", "resolve");
  bench::rule(72);

  bool all_resolve = true;
  for (const Regime regime :
       {Regime::kFrozen, Regime::kDrift, Regime::kEntropy}) {
    const RunResult v3 = run(regime, kChunkBytes);
    const RunResult inline_ref = run(regime, kInlineChunkBytes);
    for (const auto& [fmt, r] :
         {std::pair<const char*, const RunResult&>{"v3", v3},
          std::pair<const char*, const RunResult&>{"inline", inline_ref}}) {
      all_resolve = all_resolve && r.recovered_step == kCheckpoints;
      std::printf("%-8s %-6s %14llu %14llu %8.3f %6.1f%% %8s\n",
                  regime_name(regime), fmt,
                  static_cast<unsigned long long>(r.stored_bytes),
                  static_cast<unsigned long long>(r.bytes_written),
                  r.checkpoint_seconds, r.dedup_hit_ratio * 100.0,
                  r.recovered_step == kCheckpoints ? "ok" : "FAIL");
      bench::JsonLine("t6")
          .field("scenario", regime_name(regime))
          .field("format", fmt)
          .field("stored_bytes", r.stored_bytes)
          .field("bytes_written", r.bytes_written)
          .field("checkpoint_s", r.checkpoint_seconds)
          .field("dedup_hit_ratio", r.dedup_hit_ratio)
          .field("resolves", r.recovered_step == kCheckpoints)
          .emit();
    }
    const double reduction = static_cast<double>(inline_ref.stored_bytes) /
                             static_cast<double>(v3.stored_bytes);
    std::printf("%-8s        %14s reduction: %.2fx\n", regime_name(regime),
                "", reduction);
    bench::JsonLine("t6")
        .field("scenario", regime_name(regime))
        .field("reduction_x", reduction)
        .emit();
  }

  std::printf(
      "\nclaim check: frozen parameters store once (>=5x stored-bytes\n"
      "reduction over ten checkpoints; later checkpoints are\n"
      "near-metadata-only writes); the reduction decays with content\n"
      "entropy, and for fully random payloads the key tables and pack\n"
      "framing make dedup a small net loss — raise chunk_bytes above\n"
      "the section there.\n");
  if (!all_resolve) {
    std::printf("FAIL: a run did not recover its last checkpoint\n");
    return 1;
  }
  return 0;
}
