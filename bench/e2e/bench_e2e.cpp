// bench_e2e — one workload of the end-to-end checkpointing benchmark.
//
//   bench_e2e --workload NAME --seed S --seconds T --dir SCRATCH
//             [--traced --trace-out PATH] [--corrupt-expected]
//
// Each workload is a closed loop driven by one caller thread: the next
// operation starts when the previous one returned. Storage is a durable
// io::PosixEnv (every install, journal sync and manifest write fsyncs)
// rooted in SCRATCH, which is removed on exit. The program times only
// calls into each layer's public functions; it adds no instrumentation
// to the library.
//
// Untraced (the end-to-end numbers): the workload is set up at least 5
// times and for at least 3 s (fresh directory each time, timed, the last
// one kept), then operations run until T seconds have passed and at
// least the workload's minimum operation count has completed, then a
// final flush. Traced (the per-layer numbers): one untraced half of T
// for the tracing-overhead baseline, then
// a second set-up with an obs::ObservedEnv mounted and the library's own
// spans switched on, the bench's spans around each public call recorded
// into the same tracer, and the Chrome trace written to PATH.
//
// The last stdout line is `E2E {json}` with raw samples and counters;
// bench/e2e/run.py turns them into metrics. Deterministic byte counts are
// taken over a fixed window of the first operations, never over the
// time-bounded run, so they do not move with machine speed.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/state_codec.hpp"
#include "codec/codec.hpp"
#include "io/env.hpp"
#include "obs/metrics.hpp"
#include "obs/observed_env.hpp"
#include "obs/trace.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/executor.hpp"
#include "qnn/loss.hpp"
#include "qnn/trainer.hpp"
#include "sim/pauli.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"

namespace {

using namespace qnn;
namespace qq = ::qnn::qnn;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- JSON

/// Minimal JSON object writer for the E2E result line.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, std::isfinite(v) ? buf : "null");
  }
  Json& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, obs::Tracer::json_string(v));
  }
  template <typename T>
  Json& list(const std::string& key, const std::vector<T>& values) {
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i == 0 ? "" : ",");
      if constexpr (std::is_same_v<T, std::string>) {
        os << obs::Tracer::json_string(values[i]);
      } else if constexpr (std::is_floating_point_v<T>) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
        os << buf;
      } else {
        os << values[i];
      }
    }
    os << ']';
    return raw(key, os.str());
  }
  Json& raw(const std::string& key, const std::string& json) {
    os_ << (first_ ? "" : ",") << obs::Tracer::json_string(key) << ':'
        << json;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

// ------------------------------------------------------------- harness

/// Pass/fail ledger: every timed operation and every correctness gate is
/// one attempt.
struct Verdicts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) {
        errors.push_back(what);
      }
    }
  }
};

/// One set-up's storage stack. Fresh per set-up, so the env's byte
/// counters and the registry start at zero.
struct Rig {
  Rig(std::string dir_in, obs::Tracer* tracer_in, bool corrupt)
      : dir(std::move(dir_in)), tracer(tracer_in), corrupt_expected(corrupt) {
    std::filesystem::create_directories(dir);
    if (tracer != nullptr) {
      observed.emplace(posix, registry);
    }
  }

  io::Env& env() {
    return observed ? static_cast<io::Env&>(*observed) : posix;
  }

  /// Equality against an expected state. --corrupt-expected shifts the
  /// expectation so the gate must fail (the runner's self-test).
  [[nodiscard]] bool matches(const qq::TrainingState& got,
                             const qq::TrainingState& want) const {
    if (!corrupt_expected) {
      return got == want;
    }
    qq::TrainingState wrong = want;
    ++wrong.step;
    return got == wrong;
  }

  std::string dir;
  io::PosixEnv posix{/*durable=*/true};
  obs::MetricsRegistry registry;
  std::optional<obs::ObservedEnv> observed;
  obs::Tracer* tracer;
  bool corrupt_expected;
};

/// Totals over the accounting window (the first `window_ops` timed
/// operations; set-up for recover-chain), all deterministic for a seed.
struct Window {
  std::uint64_t ops = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t chunk_refs = 0;
  std::uint64_t chunks_deduped = 0;
  /// recover_latest of the directory as it stands at the window close.
  std::uint64_t recovers = 0;
  std::uint64_t recover_bytes_read = 0;
  /// The process's peak resident set since the kept set-up began: read
  /// at the close, after a fixed amount of work, because heap
  /// fragmentation keeps raising it over a longer run.
  std::uint64_t peak_rss_kb = 0;
};

/// VmHWM of this process in KiB; 0 (a failed metric) if unreadable.
std::uint64_t peak_rss_kb() {
  std::uint64_t kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %" SCNu64 " kB", &kb) == 1) {
        break;
      }
    }
    std::fclose(f);
  }
  return kb;
}

/// Returns freed heap pages to the kernel, then resets VmHWM to the
/// current resident set (Linux: "5" written to clear_refs).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += entry.file_size();
    }
  }
  return total;
}

/// recover_latest calls and the bytes they read; the flight recorder of
/// the last one.
struct RecoveryTally {
  std::uint64_t recovers = 0;
  std::uint64_t bytes_read = 0;
  std::vector<ckpt::FlightEvent> last_events;
};

/// recover_latest of the rig's directory; `tracer` may be null so the
/// window's bookkeeping recovery stays out of the trace.
std::optional<ckpt::RecoveryOutcome> recover(Rig& rig, RecoveryTally& tally,
                                             obs::Tracer* tracer) {
  const std::uint64_t before = rig.env().bytes_read();
  obs::Span span(tracer, "recovery.recover_latest", "recovery");
  auto outcome = ckpt::recover_latest(
      rig.env(), rig.dir, ckpt::RecoveryOptions{.tracer = tracer});
  span.finish();
  tally.bytes_read += rig.env().bytes_read() - before;
  ++tally.recovers;
  tally.last_events.clear();
  if (outcome) {
    tally.last_events = outcome->events;
  }
  return outcome;
}

/// Window accounting against a live Checkpointer.
class Accounting {
 public:
  void open(io::Env& env, const ckpt::Checkpointer& ck) {
    bytes0_ = env.bytes_written();
    stats0_ = ck.stats();
  }
  /// Call after the checkpointer's flush(): `durable` is the state the
  /// directory must recover to at this point.
  Window close(Rig& rig, const ckpt::Checkpointer& ck,
               const qq::TrainingState& durable, Verdicts& verdicts) const {
    const auto stats = ck.stats();
    Window w;
    w.bytes_written = rig.env().bytes_written() - bytes0_;
    w.checkpoints = stats.checkpoints - stats0_.checkpoints;
    w.journal_records = stats.wal_records - stats0_.wal_records;
    w.chunk_refs = stats.chunk_refs - stats0_.chunk_refs;
    w.chunks_deduped = stats.chunks_deduped - stats0_.chunks_deduped;
    RecoveryTally tally;
    const auto outcome = recover(rig, tally, nullptr);
    verdicts.check(outcome && rig.matches(outcome->state, durable),
                   "recovery at the window close differs from the state "
                   "made durable there");
    w.recovers = tally.recovers;
    w.recover_bytes_read = tally.bytes_read;
    return w;
  }

 private:
  std::uint64_t bytes0_ = 0;
  ckpt::Checkpointer::Stats stats0_;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Untimed input preparation before each operation.
  virtual void prepare() {}
  /// The timed operation.
  virtual void op() = 0;
  /// Untimed check of the operation's output.
  virtual bool op_correct() { return true; }
  virtual void open_window() = 0;
  /// Makes everything so far durable and totals the window.
  virtual Window close_window(Verdicts& verdicts) = 0;
  /// Raw bytes of the state the directory currently holds.
  [[nodiscard]] virtual std::uint64_t raw_state_bytes() const = 0;
  /// The final durability point, inside the measured wall time.
  virtual void finish() = 0;
  /// Correctness gates after finish().
  virtual void verify(Verdicts& verdicts) = 0;
  /// The workload's largest section payload (kernel throughput input).
  [[nodiscard]] virtual util::Bytes sample_payload() const = 0;
  [[nodiscard]] virtual const ckpt::Checkpointer* checkpointer() const {
    return nullptr;
  }
  RecoveryTally tally;
};

/// The benches' fast trainer config (SPSA, Adam 0.05), restated here so
/// the benchmark's workload cannot drift with the shared bench helpers.
qq::TrainerConfig train_config(std::uint64_t seed) {
  qq::TrainerConfig cfg;
  cfg.optimizer = "adam";
  cfg.learning_rate = 0.05;
  cfg.gradient.method = qq::GradientMethod::kSpsa;
  cfg.seed = seed;
  return cfg;
}

util::Bytes capped(util::Bytes bytes) {
  bytes.resize(std::min<std::size_t>(bytes.size(), std::size_t{1} << 20));
  return bytes;
}

/// A generated training state whose parameters drift region by region.
/// The parameters are cut into regions of `region_params`; every
/// `stride`-th region drifts. The drifting regions are shuffled once
/// (seeded), and each step rewrites the next `regions` of that order with
/// fresh seeded values, cycling. Every drifting region is thus rewritten
/// once per cycle, and the bytes a checkpoint stores depend on the seed
/// only through the values, not through which regions collide.
class DriftingState {
 public:
  DriftingState(std::size_t params, std::size_t region_params,
                std::size_t regions, std::size_t stride, std::uint64_t seed)
      : region_params_(region_params), regions_(regions), rng_(seed) {
    state.params.resize(params);
    for (double& p : state.params) {
      p = rng_.uniform(-1.0, 1.0);
    }
    state.optimizer_name = "adam";
    state.optimizer_state.resize(256);
    for (auto& b : state.optimizer_state) {
      b = static_cast<std::uint8_t>(rng_());
    }
    state.rng_state = util::Rng(seed).serialize();
    state.workload_tag = "generated";
    for (std::size_t r = 0; r < params / region_params; r += stride) {
      order_.push_back(r);
    }
    rng_.shuffle(order_);
  }

  void step() {
    for (std::size_t k = 0; k < regions_; ++k) {
      const std::size_t r = order_[next_++ % order_.size()];
      for (std::size_t i = 0; i < region_params_; ++i) {
        state.params[r * region_params_ + i] = rng_.uniform(-1.0, 1.0);
      }
    }
    ++state.step;
  }

  qq::TrainingState state;

 private:
  std::size_t region_params_;
  std::size_t regions_;
  util::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
};

// ----------------------------------------------------------- workloads

/// train-async: VQE on a 14-qubit TFIM, full-state checkpoints carrying
/// a mid-evaluation simulator snapshot, async pipeline every 2 steps. One
/// operation is one checkpoint interval: the steps up to the checkpoint
/// boundary, then the checkpoint. (A per-step latency would put the median
/// on the edge between plain and checkpointing steps.)
class TrainAsync final : public Workload {
 public:
  TrainAsync(Rig& rig, std::uint64_t seed)
      : rig_(rig),
        loss_(qq::hardware_efficient(14, 3),
              sim::transverse_field_ising(14, 1.0, 1.0)),
        config_(train_config(seed)),
        trainer_(loss_, config_),
        ck_(rig.env(), rig.dir, policy(rig)),
        sim_ops_(loss_.circuit().ops().size() * 8 / 10) {
    op();  // first checkpoint: starts the pipeline
    ck_.flush();
  }

  void op() override {
    do {
      obs::Span span(rig_.tracer, "qnn.step_once", "qnn");
      trainer_.step_once();
    } while (!ck_.due(trainer_.step()));
    util::Bytes snapshot;
    {
      obs::Span span(rig_.tracer, "sim.snapshot", "sim");
      qq::ResumableExecutor exec(loss_.circuit(), trainer_.params());
      exec.advance(sim_ops_);
      snapshot = exec.serialize();
    }
    obs::Span span(rig_.tracer, "ckpt.call", "ckpt");
    qq::TrainingState state = trainer_.capture();
    state.simulator_state = std::move(snapshot);
    ck_.maybe_checkpoint(state);
    span.finish();
    last_ = std::move(state);
  }

  void open_window() override { acct_.open(rig_.env(), ck_); }
  Window close_window(Verdicts& v) override {
    ck_.flush();
    return acct_.close(rig_, ck_, last_, v);
  }
  [[nodiscard]] std::uint64_t raw_state_bytes() const override {
    return last_.component_sizes().total();
  }
  void finish() override {
    obs::Span span(rig_.tracer, "ckpt.flush", "ckpt");
    ck_.flush();
  }
  void verify(Verdicts& v) override {
    const auto outcome = recover(rig_, tally, rig_.tracer);
    v.check(outcome && rig_.matches(outcome->state, last_),
            "recovered state differs from the last checkpoint");
    if (!outcome) {
      return;
    }
    qq::Trainer resumed(loss_, config_);
    resumed.restore(outcome->state);
    resumed.step_once();
    trainer_.step_once();
    v.check(std::ranges::equal(resumed.params(), trainer_.params()),
            "resumed trainer's next step is not bit-exact");
  }
  [[nodiscard]] util::Bytes sample_payload() const override {
    return capped(
        ckpt::encode_section_payload(ckpt::SectionKind::kSimulator, last_));
  }
  [[nodiscard]] const ckpt::Checkpointer* checkpointer() const override {
    return &ck_;
  }

 private:
  static ckpt::CheckpointPolicy policy(Rig& rig) {
    ckpt::CheckpointPolicy p;
    p.strategy = ckpt::Strategy::kFullState;
    p.async = true;
    p.every_steps = 2;
    p.retention.keep_last = 4;
    p.tracer = rig.tracer;
    return p;
  }

  Rig& rig_;
  qq::ExpectationLoss loss_;
  qq::TrainerConfig config_;
  qq::Trainer trainer_;
  ckpt::Checkpointer ck_;
  std::size_t sim_ops_;
  qq::TrainingState last_;
  Accounting acct_;
};

/// ckpt-sync-drift: a 32 MiB-parameter generated state, 8 seeded 256 KiB
/// regions rewritten per checkpoint, synchronous v3 dedup checkpoints.
/// Only every other region drifts: the params payload's 8-byte length
/// prefix shifts chunks 8 bytes against regions, so a region touches two
/// chunks and neighbouring regions share one. With gaps between them, a
/// checkpoint misses exactly 16 chunks, whatever the seed.
class CkptSyncDrift final : public Workload {
 public:
  static constexpr std::size_t kRegionParams = (256 << 10) / sizeof(double);

  CkptSyncDrift(Rig& rig, std::uint64_t seed)
      : rig_(rig),
        drift_(std::size_t{32 << 20} / sizeof(double), kRegionParams, 8,
               /*stride=*/2, seed),
        ck_(rig.env(), rig.dir, policy(rig)) {
    for (int i = 0; i < 8; ++i) {
      prepare();
      op();
    }
  }

  void prepare() override { drift_.step(); }
  void op() override {
    obs::Span span(rig_.tracer, "ckpt.call", "ckpt");
    ck_.checkpoint_now(drift_.state);
  }
  void open_window() override { acct_.open(rig_.env(), ck_); }
  Window close_window(Verdicts& v) override {
    ck_.flush();
    return acct_.close(rig_, ck_, drift_.state, v);
  }
  [[nodiscard]] std::uint64_t raw_state_bytes() const override {
    return drift_.state.component_sizes().total();
  }
  void finish() override {
    obs::Span span(rig_.tracer, "ckpt.flush", "ckpt");
    ck_.flush();
  }
  void verify(Verdicts& v) override {
    const auto outcome = recover(rig_, tally, rig_.tracer);
    v.check(outcome && rig_.matches(outcome->state, drift_.state),
            "recovered state differs from the last checkpoint");
  }
  [[nodiscard]] util::Bytes sample_payload() const override {
    return capped(ckpt::encode_section_payload(ckpt::SectionKind::kParams,
                                               drift_.state));
  }
  [[nodiscard]] const ckpt::Checkpointer* checkpointer() const override {
    return &ck_;
  }

 private:
  static ckpt::CheckpointPolicy policy(Rig& rig) {
    ckpt::CheckpointPolicy p;
    p.strategy = ckpt::Strategy::kFullState;
    p.codec = codec::CodecId::kLz;
    p.every_steps = 1;
    p.chunk_bytes = std::size_t{256} << 10;
    p.retention.keep_last = 4;
    p.tracer = rig.tracer;
    return p;
  }

  Rig& rig_;
  DriftingState drift_;
  ckpt::Checkpointer ck_;
  Accounting acct_;
};

/// wal-journal: 10-qubit VQE, params-only installs every 64 steps and a
/// journal record on every step in between, group commit every 4.
class WalJournal final : public Workload {
 public:
  static constexpr std::size_t kLossLog = 2048;

  WalJournal(Rig& rig, std::uint64_t seed)
      : rig_(rig),
        loss_(qq::hardware_efficient(10, 3),
              sim::transverse_field_ising(10, 1.0, 1.0)),
        trainer_(loss_, train_config(seed)),
        ck_(rig.env(), rig.dir, policy(rig)) {
    for (int i = 0; i < 64; ++i) {
      op();  // up to the first install, which opens the journal
    }
    ck_.flush();
  }

  void prepare() override {
    // Every journal record carries the whole loss history, one double
    // longer each step. Rotating the log keeps an operation's cost
    // independent of how many steps the machine fits into the run; the
    // history never feeds back into training.
    if (trainer_.loss_history().size() >= kLossLog) {
      qq::TrainingState state = trainer_.capture();
      state.loss_history.clear();
      trainer_.restore(state);
    }
  }
  void op() override {
    {
      obs::Span span(rig_.tracer, "qnn.step_once", "qnn");
      trainer_.step_once();
    }
    obs::Span span(rig_.tracer, "ckpt.call", "ckpt");
    ck_.maybe_checkpoint(trainer_.capture());
  }
  void open_window() override { acct_.open(rig_.env(), ck_); }
  Window close_window(Verdicts& v) override {
    ck_.flush();
    return acct_.close(rig_, ck_, trainer_.capture(), v);
  }
  [[nodiscard]] std::uint64_t raw_state_bytes() const override {
    return trainer_.capture().component_sizes().total();
  }
  void finish() override {
    obs::Span span(rig_.tracer, "ckpt.flush", "ckpt");
    ck_.flush();
  }
  void verify(Verdicts& v) override {
    // After flush() every journal record is synced: recovery must reach
    // the trainer's current step, not just the last install.
    const auto outcome = recover(rig_, tally, rig_.tracer);
    v.check(outcome && rig_.matches(outcome->state, trainer_.capture()),
            "recovered state differs from the last journaled step");
  }
  [[nodiscard]] util::Bytes sample_payload() const override {
    return capped(ckpt::encode_section_payload(ckpt::SectionKind::kParams,
                                               trainer_.capture()));
  }
  [[nodiscard]] const ckpt::Checkpointer* checkpointer() const override {
    return &ck_;
  }

 private:
  static ckpt::CheckpointPolicy policy(Rig& rig) {
    ckpt::CheckpointPolicy p;
    p.strategy = ckpt::Strategy::kParamsOnly;
    p.every_steps = 64;
    p.retention.keep_last = 2;
    p.wal.enable = true;
    p.wal.group_commit_steps = 4;
    p.tracer = rig.tracer;
    return p;
  }

  Rig& rig_;
  qq::ExpectationLoss loss_;
  qq::Trainer trainer_;
  ckpt::Checkpointer ck_;
  Accounting acct_;
};

/// recover-chain: set-up writes an 8 MiB generated state as an
/// incremental chain of 8 (one full + 7 deltas) plus 3 journal records;
/// the timed operation is recover_latest of that directory.
class RecoverChain final : public Workload {
 public:
  RecoverChain(Rig& rig, std::uint64_t seed)
      : rig_(rig),
        drift_(std::size_t{8 << 20} / sizeof(double),
               (64 << 10) / sizeof(double), 4, /*stride=*/1, seed) {
    const std::uint64_t bytes0 = rig.env().bytes_written();
    {
      ckpt::Checkpointer ck(rig.env(), rig.dir, policy(rig));
      // Installs at steps 4, 8, ..., 32: one full and 7 deltas. Skipping
      // maybe_checkpoint on the steps between keeps the older epochs'
      // journals empty; only the tip's journal holds records.
      for (int k = 0; k < 8; ++k) {
        for (int i = 0; i < 4; ++i) {
          drift_.step();
        }
        ck.checkpoint_now(drift_.state);
      }
      for (int i = 0; i < 3; ++i) {
        drift_.step();
        ck.maybe_checkpoint(drift_.state);  // not due: journal records
      }
      ck.flush();
      const auto stats = ck.stats();
      window_.checkpoints = stats.checkpoints;
      window_.journal_records = stats.wal_records;
      window_.chunk_refs = stats.chunk_refs;
      window_.chunks_deduped = stats.chunks_deduped;
    }
    window_.bytes_written = rig.env().bytes_written() - bytes0;
    for (int i = 0; i < 3; ++i) {
      op();
    }
    window_.recovers = tally.recovers;
    window_.recover_bytes_read = tally.bytes_read;
  }

  void op() override { outcome_ = recover(rig_, tally, rig_.tracer); }
  bool op_correct() override {
    return outcome_ && rig_.matches(outcome_->state, drift_.state);
  }
  void open_window() override {}
  Window close_window(Verdicts&) override { return window_; }
  [[nodiscard]] std::uint64_t raw_state_bytes() const override {
    return drift_.state.component_sizes().total();
  }
  void finish() override {}
  void verify(Verdicts&) override {}  // every timed recovery is a gate
  [[nodiscard]] util::Bytes sample_payload() const override {
    return capped(ckpt::encode_section_payload(ckpt::SectionKind::kParams,
                                               drift_.state));
  }

 private:
  static ckpt::CheckpointPolicy policy(Rig& rig) {
    ckpt::CheckpointPolicy p;
    p.strategy = ckpt::Strategy::kIncremental;
    p.codec = codec::CodecId::kLz;
    p.every_steps = 4;
    p.full_every = 8;
    p.chunk_bytes = std::size_t{256} << 10;
    p.retention.keep_last = 8;
    p.wal.enable = true;
    p.wal.group_commit_steps = 1;
    // Records of an 8 MiB state exceed the default compaction budget;
    // the chain must end in journal records, not a compaction install.
    p.wal.max_log_bytes = 0;
    p.tracer = rig.tracer;
    return p;
  }

  Rig& rig_;
  DriftingState drift_;
  Window window_;
  std::optional<ckpt::RecoveryOutcome> outcome_;
};

struct Spec {
  const char* name;
  /// Accounting window: the first N timed operations. wal-journal's ends
  /// 32 records past an install, so its recovery replays a journal.
  std::uint64_t window_ops;
  std::uint64_t min_ops;  ///< >= 10 samples beyond the p90
  /// Sample the directory size after each operation of the window's
  /// second half: a sync workload's directory is settled between calls,
  /// an async one's is not (it is sampled once, after the close's flush).
  bool sample_space;
};

constexpr Spec kSpecs[] = {
    {"train-async", 32, 100, false},
    {"ckpt-sync-drift", 128, 128, true},
    {"wal-journal", 16 * 64 + 32, 1024, true},
    {"recover-chain", 0, 100, false},
};

std::unique_ptr<Workload> make_workload(const std::string& name, Rig& rig,
                                        std::uint64_t seed) {
  if (name == "train-async") {
    return std::make_unique<TrainAsync>(rig, seed);
  }
  if (name == "ckpt-sync-drift") {
    return std::make_unique<CkptSyncDrift>(rig, seed);
  }
  if (name == "wal-journal") {
    return std::make_unique<WalJournal>(rig, seed);
  }
  return std::make_unique<RecoverChain>(rig, seed);
}

// ------------------------------------------------------- layer counters

/// ObservedEnv instruments of one operation class at one instant.
struct IoClass {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, obs::LatencyHistogram::kBuckets> buckets{};
};

constexpr const char* kIoClasses[] = {"append", "sync",   "install",
                                      "pread",  "remove", "meta"};

std::vector<IoClass> io_snapshot(obs::MetricsRegistry& registry) {
  std::vector<IoClass> out;
  for (const char* name : kIoClasses) {
    const std::string prefix = std::string("io.") + name;
    IoClass c;
    c.ops = registry.counter(prefix + ".ops").value();
    c.bytes = registry.counter(prefix + ".bytes").value();
    const auto& h = registry.histogram(prefix + ".latency_us");
    for (std::size_t i = 0; i < c.buckets.size(); ++i) {
      c.buckets[i] = h.bucket(i);
    }
    out.push_back(c);
  }
  return out;
}

std::string io_delta_json(const std::vector<IoClass>& before,
                          const std::vector<IoClass>& after) {
  Json json;
  for (std::size_t k = 0; k < after.size(); ++k) {
    std::vector<std::uint64_t> buckets;
    for (std::size_t i = 0; i < after[k].buckets.size(); ++i) {
      buckets.push_back(after[k].buckets[i] - before[k].buckets[i]);
    }
    json.raw(kIoClasses[k], Json()
                                .count("ops", after[k].ops - before[k].ops)
                                .count("bytes",
                                       after[k].bytes - before[k].bytes)
                                .list("buckets", buckets)
                                .str());
  }
  return json.str();
}

std::string ckpt_delta_json(const ckpt::Checkpointer* ck,
                            const ckpt::Checkpointer::Stats& s0,
                            const ckpt::GcStats& g0) {
  const auto s = ck ? ck->stats() : ckpt::Checkpointer::Stats{};
  const auto g = ck ? ck->gc_stats() : ckpt::GcStats{};
  return Json()
      .count("checkpoints", s.checkpoints - s0.checkpoints)
      .num("submit_blocked_s",
           s.submit_blocked_seconds - s0.submit_blocked_seconds)
      .count("peak_encode_buffer_bytes", s.peak_encode_buffer_bytes)
      .count("dropped_writes", s.dropped_writes - s0.dropped_writes)
      .count("chunk_refs", s.chunk_refs - s0.chunk_refs)
      .count("chunks_deduped", s.chunks_deduped - s0.chunks_deduped)
      .count("pack_bytes_written",
             s.pack_bytes_written - s0.pack_bytes_written)
      .count("wal_records", s.wal_records - s0.wal_records)
      .count("wal_bytes", s.wal_bytes - s0.wal_bytes)
      .count("wal_compactions", s.wal_compactions - s0.wal_compactions)
      .count("gc_files_deleted", g.files_deleted - g0.files_deleted)
      .count("gc_manifest_rewrites",
             g.manifest_rewrites - g0.manifest_rewrites)
      .str();
}

std::string flight_json(const RecoveryTally& tally) {
  std::uint64_t depth = 0;
  std::uint64_t replayed = 0;
  std::uint64_t candidates = 0;
  for (const auto& e : tally.last_events) {
    if (e.name == "chain.resolved") {
      depth = std::strtoull(e.value("depth").c_str(), nullptr, 10);
    } else if (e.name == "wal.replay") {
      replayed = std::strtoull(e.value("records").c_str(), nullptr, 10);
    } else if (e.name == "candidate.try") {
      ++candidates;
    }
  }
  return Json()
      .count("chain_depth", depth)
      .count("wal_records_replayed", replayed)
      .count("candidates", candidates)
      .str();
}

/// MB/s of repeated calls of `f` over `bytes` input bytes (>= 0.2 s).
template <typename F>
double mbps(std::size_t bytes, F&& f) {
  std::uint64_t reps = 0;
  const double start = now_s();
  double elapsed = 0.0;
  do {
    f();
    ++reps;
    elapsed = now_s() - start;
  } while (elapsed < 0.2);
  return static_cast<double>(bytes) * static_cast<double>(reps) / elapsed /
         1e6;
}

std::string kernels_json(const util::Bytes& payload) {
  std::uint64_t sink = 0;
  const util::Bytes encoded = codec::encode(codec::CodecId::kLz, payload);
  const double enc = mbps(payload.size(), [&] {
    sink += codec::encode(codec::CodecId::kLz, payload).size();
  });
  const double dec = mbps(payload.size(), [&] {
    sink += codec::decode(codec::CodecId::kLz, encoded, payload.size()).size();
  });
  const double crc =
      mbps(payload.size(), [&] { sink += util::crc32c(payload); });
  return Json()
      .num("lz_encode_MBps", enc)
      .num("lz_decode_MBps", dec)
      .num("crc32c_MBps", crc)
      .count("payload_bytes", payload.size())
      .count("sink", sink)
      .str();
}

// --------------------------------------------------------------- phases

constexpr int kMinSetups = 5;
constexpr double kSetupSeconds = 3.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string dir;
  bool traced = false;
  std::string trace_out;
  bool corrupt_expected = false;
};

/// Set-ups, the timed closed loop, final flush and correctness gates.
/// Sets up at least `setups` times and for at least `setup_seconds`, so
/// the median set-up spans more than one of the machine's slow bursts
/// (0.5-2 s in which everything runs up to 2x slower). Returns the
/// phase's JSON object.
std::string run_phase(const Args& args, const Spec& spec, double seconds,
                      std::uint64_t min_ops, int setups, double setup_seconds,
                      obs::Tracer* tracer) {
  std::vector<double> setup_s;
  double setup_total = 0.0;
  std::unique_ptr<Rig> rig;
  std::unique_ptr<Workload> w;
  const std::string dir = args.dir + "/ckpt";
  const auto set_up = [&] {
    w.reset();
    rig.reset();
    std::filesystem::remove_all(dir);
    const double t0 = now_s();
    rig = std::make_unique<Rig>(dir, tracer, args.corrupt_expected);
    w = make_workload(spec.name, *rig, args.seed);
    setup_s.push_back(now_s() - t0);
    setup_total += setup_s.back();
  };
  while (std::ssize(setup_s) + 1 < setups || setup_total < setup_seconds) {
    set_up();
  }
  // The kept set-up starts from a trimmed heap and a reset peak, so the
  // peak resident set does not depend on how many set-ups came before.
  w.reset();
  rig.reset();
  reset_peak_rss();
  set_up();

  Verdicts verdicts;
  std::vector<double> op_ms;
  Window window;
  const ckpt::Checkpointer* ck = w->checkpointer();
  const auto stats0 = ck ? ck->stats() : ckpt::Checkpointer::Stats{};
  const auto gc0 = ck ? ck->gc_stats() : ckpt::GcStats{};
  const auto io0 = io_snapshot(rig->registry);
  if (tracer != nullptr) {
    tracer->instant("timed.begin", "bench");
  }
  w->open_window();
  const double start = now_s();
  // Window bookkeeping (flush, directory walks, the close's recovery) is
  // cut out of the timeline: `elapsed` is workload time only.
  double excluded = 0.0;
  const auto elapsed = [&] { return now_s() - start - excluded; };
  const auto bookkeeping = [&](const auto& fn) {
    const double t0 = now_s();
    fn();
    excluded += now_s() - t0;
  };
  // Directory bytes per raw state byte, sampled after each operation of
  // the window's second half (sync workloads) and at the close.
  double space_amp_sum = 0.0;
  std::uint64_t space_samples = 0;
  const auto sample_space = [&] {
    space_amp_sum += static_cast<double>(dir_bytes(rig->dir)) /
                     static_cast<double>(w->raw_state_bytes());
    ++space_samples;
  };
  std::uint64_t ops = 0;
  bool window_closed = false;
  while (true) {
    if (!window_closed && ops == spec.window_ops) {
      bookkeeping([&] {
        window = w->close_window(verdicts);
        window.ops = ops;
        window.peak_rss_kb = peak_rss_kb();
        sample_space();
      });
      window_closed = true;
    }
    if (window_closed && ops >= min_ops && elapsed() >= seconds) {
      break;
    }
    w->prepare();
    std::string error;
    const double t0 = now_s();
    try {
      w->op();
    } catch (const std::exception& e) {
      error = std::string("operation threw: ") + e.what();
    }
    op_ms.push_back((now_s() - t0) * 1e3);
    ++ops;
    verdicts.check(error.empty() && w->op_correct(),
                   error.empty() ? "operation failed its check" : error);
    if (spec.sample_space && 2 * ops > spec.window_ops &&
        ops < spec.window_ops) {
      bookkeeping(sample_space);
    }
  }
  w->finish();
  const double wall_s = elapsed();
  const std::string ckpt_json = ckpt_delta_json(ck, stats0, gc0);
  try {
    w->verify(verdicts);
  } catch (const std::exception& e) {
    verdicts.check(false, std::string("verification threw: ") + e.what());
  }

  Json json;
  json.list("setup_s", setup_s)
      .count("ops", ops)
      .num("wall_s", wall_s)
      .list("op_ms", op_ms)
      .raw("window",
           Json()
               .count("ops", window.ops)
               .count("bytes_written", window.bytes_written)
               .count("checkpoints", window.checkpoints)
               .count("journal_records", window.journal_records)
               .count("chunk_refs", window.chunk_refs)
               .count("chunks_deduped", window.chunks_deduped)
               .count("recovers", window.recovers)
               .count("recover_bytes_read", window.recover_bytes_read)
               .count("peak_rss_kb", window.peak_rss_kb)
               .num("space_amp",
                    space_amp_sum / static_cast<double>(space_samples))
               .count("space_samples", space_samples)
               .str())
      .count("attempted", verdicts.attempted)
      .count("failed", verdicts.failed)
      .list("errors", verdicts.errors)
      .raw("ckpt", ckpt_json)
      .raw("io", io_delta_json(io0, io_snapshot(rig->registry)))
      .raw("flight", flight_json(w->tally));
  if (tracer != nullptr) {
    json.raw("kernels", kernels_json(w->sample_payload()));
  }
  return json.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed S "
               "--seconds T --dir SCRATCH [--traced --trace-out PATH] "
               "[--corrupt-expected]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage("missing value for " + a);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = next();
    } else if (a == "--seed") {
      args.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--dir") {
      args.dir = next();
    } else if (a == "--traced") {
      args.traced = true;
    } else if (a == "--trace-out") {
      args.trace_out = next();
    } else if (a == "--corrupt-expected") {
      args.corrupt_expected = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (args.dir.empty()) {
    usage("--dir is required");
  }
  if (args.traced && args.trace_out.empty()) {
    usage("--traced needs --trace-out");
  }
  return args;
}

/// Removes the scratch directory on every exit path.
struct ScratchGuard {
  explicit ScratchGuard(std::string d) : dir(std::move(d)) {
    std::filesystem::create_directories(dir);
  }
  ~ScratchGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  ScratchGuard(const ScratchGuard&) = delete;
  ScratchGuard& operator=(const ScratchGuard&) = delete;
  std::string dir;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) {
      spec = &s;
    }
  }
  if (spec == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  try {
    ScratchGuard scratch(args.dir);
    std::vector<std::string> phases;
    if (!args.traced) {
      phases.push_back(run_phase(args, *spec, args.seconds, spec->min_ops,
                                 kMinSetups, kSetupSeconds, nullptr));
    } else {
      // Untraced half first: the baseline for the tracing overhead. The
      // per-layer numbers are medians, so half the samples suffice.
      const double half = args.seconds / 2;
      const std::uint64_t half_ops = spec->min_ops / 2;
      phases.push_back(
          run_phase(args, *spec, half, half_ops, 1, 0.0, nullptr));
      obs::Tracer tracer;
      phases.push_back(
          run_phase(args, *spec, half, half_ops, 1, 0.0, &tracer));
      tracer.write(args.trace_out);
    }
    std::string list = "[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      list += (i == 0 ? "" : ",") + phases[i];
    }
    list += "]";
    std::printf("E2E %s\n",
                Json()
                    .str("workload", args.workload)
                    .count("seed", args.seed)
                    .raw("phases", list)
                    .str()
                    .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
