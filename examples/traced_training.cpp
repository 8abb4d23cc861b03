// traced_training — the observability layer end to end on a real job.
//
// Runs a short VQE-style training loop with the full instrumentation
// stack mounted: an ObservedEnv between the checkpointer and the disk
// (per-op I/O counts/bytes/latency), the checkpointer's counters and
// per-stage latency histograms in the same MetricsRegistry, and a Tracer
// recording one span tree per checkpoint plus WAL/GC/tier events.
//
//   ./examples/traced_training [--dir DIR] [--steps N] [--interval K]
//       [--async] [--trace OUT.json]
//
// The trace path defaults to the QNNCKPT_TRACE environment variable
// (no trace written when neither is set); load the file in
// chrome://tracing or https://ui.perfetto.dev. The metrics snapshot is
// printed as a text dump plus one machine-readable RESULT line.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ckpt/checkpointer.hpp"
#include "ckpt/trainer_hook.hpp"
#include "io/env.hpp"
#include "obs/metrics.hpp"
#include "obs/observed_env.hpp"
#include "obs/trace.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/loss.hpp"
#include "qnn/trainer.hpp"

namespace qq = qnn::qnn;

namespace {

struct Args {
  std::string dir = "/tmp/qnnckpt-traced";
  std::size_t steps = 60;
  std::uint64_t interval = 5;
  bool async = false;
  std::string trace;
};

Args parse(int argc, char** argv) {
  Args args;
  if (const char* env = std::getenv("QNNCKPT_TRACE")) {
    args.trace = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--dir") {
      args.dir = next();
    } else if (a == "--steps") {
      args.steps = std::strtoull(next(), nullptr, 10);
    } else if (a == "--interval") {
      args.interval = std::strtoull(next(), nullptr, 10);
    } else if (a == "--async") {
      args.async = true;
    } else if (a == "--trace") {
      args.trace = next();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      std::exit(2);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  qq::FidelityLoss loss(
      qq::hardware_efficient(3, 2),
      qq::make_unitary_learning_data(3, 8, 6, /*seed=*/12345));
  qq::TrainerConfig config;
  config.optimizer = "adam";
  config.learning_rate = 0.08;
  config.seed = 98765;
  qq::Trainer trainer(loss, config);

  // The observability stack: one registry + one tracer shared by every
  // layer. The ObservedEnv sits between the checkpointer and the disk,
  // so every append/sync/install/pread the storage stack issues is
  // counted; the policy pointers put the checkpointer's counters and
  // stage histograms in the same registry and light up the span tree.
  qnn::obs::MetricsRegistry registry;
  qnn::obs::Tracer tracer;
  qnn::io::PosixEnv posix;
  qnn::obs::ObservedEnv env(posix, registry);

  const auto recovered = qnn::ckpt::resume_or_start(env, args.dir, trainer);
  if (recovered) {
    std::printf("[resume] checkpoint id=%llu at step %llu\n",
                static_cast<unsigned long long>(recovered->checkpoint_id),
                static_cast<unsigned long long>(recovered->step));
  }

  qnn::ckpt::CheckpointPolicy policy;
  policy.strategy = qnn::ckpt::Strategy::kIncremental;
  policy.every_steps = args.interval;
  policy.retention.keep_last = 3;
  policy.full_every = 4;
  policy.async = args.async;
  policy.metrics = &registry;
  policy.tracer = &tracer;
  qnn::ckpt::Checkpointer checkpointer(env, args.dir, policy);

  if (trainer.step() < args.steps) {
    trainer.run(args.steps - trainer.step(), [&](const qq::StepInfo& info) {
      checkpointer.maybe_checkpoint(trainer.capture());
      if (info.step % 20 == 0) {
        std::printf("  step %5llu  loss %.6f\n",
                    static_cast<unsigned long long>(info.step), info.loss);
      }
      return true;
    });
    checkpointer.checkpoint_now(trainer.capture());
  }
  checkpointer.flush();

  // Snapshot: the registry holds the checkpointer's instruments next to
  // the ObservedEnv's I/O ones. Render both views — the sorted text dump
  // for humans, one RESULT line for the regression tooling.
  std::printf("\nmetrics registry:\n%s", registry.text().c_str());
  std::printf("RESULT %s\n", registry.json("traced_training").c_str());

  if (!args.trace.empty()) {
    tracer.write(args.trace);
    std::printf("\ntrace: %zu event(s) written to %s\n",
                tracer.event_count(), args.trace.c_str());
  }
  return 0;
}
