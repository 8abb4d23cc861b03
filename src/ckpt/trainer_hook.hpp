// Convenience glue between Trainer and Checkpointer.
//
// checkpointing_callback() adapts a Checkpointer into a Trainer step
// callback; resume_or_start() implements the standard job prologue:
// recover the newest checkpoint if one exists, otherwise start fresh.
#pragma once

#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "qnn/trainer.hpp"

namespace qnn::ckpt {

/// Step callback that checkpoints on the policy's step boundaries.
/// `trainer` and `checkpointer` must outlive the returned callback.
/// Off-boundary steps skip the TrainingState capture entirely (it copies
/// parameters, optimiser state and loss history) — except in adaptive
/// mode, where maybe_checkpoint must see every step to learn the cadence,
/// and when the policy journals, which logs exactly those steps.
inline qnn::StepCallback checkpointing_callback(qnn::Trainer& trainer,
                                                Checkpointer& checkpointer) {
  return [&trainer, &checkpointer](const qnn::StepInfo& info) {
    const CheckpointPolicy& policy = checkpointer.policy();
    if (policy.target_mtbf_seconds > 0.0 || policy.wal.enable ||
        checkpointer.due(info.step)) {
      checkpointer.maybe_checkpoint(trainer.capture());
    }
    return true;
  };
}

/// Restores `trainer` from the newest usable checkpoint in `dir`, if any.
/// Returns the recovery outcome (std::nullopt = cold start).
inline std::optional<RecoveryOutcome> resume_or_start(io::Env& env,
                                                      const std::string& dir,
                                                      qnn::Trainer& trainer) {
  auto outcome = recover_latest(env, dir);
  if (outcome) {
    trainer.restore(outcome->state);
  }
  return outcome;
}

}  // namespace qnn::ckpt
