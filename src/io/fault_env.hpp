// Fault-injecting Env decorators.
//
// Two complementary models live here:
//
// 1. FaultEnv — probabilistic faults drawn from a deterministic RNG
//    (torn writes, bit flips, mid-write process kills), for the sampled
//    fault matrix (T4).
//
// 2. CrashScheduleEnv — *deterministic* crash scheduling: the env counts
//    every mutating operation and crashes at exactly the K-th one,
//    optionally at byte offset B within that operation's payload. The
//    mutating operations are plain-stream appends (each append of an
//    open WriteMode::kPlain handle is one op, torn at byte offset B),
//    atomic-stream closes (the install point: all-or-nothing), and
//    removes — so a streamed write can be torn at ANY append/byte
//    boundary, not just whole-file boundaries. With
//    enumerate_crash_schedules() a scenario can be replayed once per
//    (K, B) pair, turning "survives a crash anywhere" from a sampled
//    claim into an exhaustively checked one (crash_matrix_test, T5).
#pragma once

#include <functional>
#include <memory>
#include <mutex>

#include "io/env.hpp"
#include "util/rng.hpp"

namespace qnn::io {

/// Per-write fault probabilities; all default to "no faults".
struct FaultSpec {
  double torn_write_prob = 0.0;   ///< write only a random prefix
  double bit_flip_prob = 0.0;     ///< flip one random bit of the payload
  double crash_prob = 0.0;        ///< throw WriteCrash after a torn write
  /// When true, faults also hit atomic installs (modelling a filesystem
  /// without atomic rename or a writer that skips the tmp+rename dance).
  bool fault_atomic_writes = false;
};

/// Thrown by FaultEnv to emulate the writing process dying mid-write.
struct WriteCrash : std::runtime_error {
  WriteCrash() : std::runtime_error("injected write crash") {}
};

/// Decorator around a base Env that injects FaultSpec faults on writes.
/// Streamed writes buffer their appends and draw the fault for the whole
/// stream at close: one fault decision per file. Reads pass through
/// untouched.
class FaultEnv final : public ForwardingEnv {
 public:
  FaultEnv(Env& base, FaultSpec spec, std::uint64_t seed = 42)
      : ForwardingEnv(base), spec_(spec), rng_(seed) {}

  std::unique_ptr<WritableFile> new_writable(const std::string& path,
                                             WriteMode mode) override;

  /// Counters for test assertions.
  [[nodiscard]] std::uint64_t faults_injected() const {
    std::lock_guard lock(mu_);
    return faults_injected_;
  }

 private:
  friend class FaultWritableFile;

  /// Applies armed faults to a copy of `data` and writes it (non-atomic).
  /// May throw WriteCrash.
  void faulty_write(const std::string& path, ByteSpan data);

  FaultSpec spec_;
  /// Guards rng_ and faults_injected_: concurrent writer threads must not
  /// corrupt the deterministic fault stream. Fault *order* across threads
  /// is scheduling-dependent, but the stream itself stays intact.
  mutable std::mutex mu_;
  util::Rng rng_;
  std::uint64_t faults_injected_ = 0;
};

// ---------------------------------------------------------------------------
// Deterministic crash schedules
// ---------------------------------------------------------------------------

/// When and how a scheduled crash fires. Mutating operations are
/// plain-stream appends, atomic-stream closes and remove_file (the
/// whole-buffer helpers are one-append streams: write_file is one plain
/// append, write_file_atomic one atomic close); reads, syncs and atomic
/// staging appends are not counted.
struct CrashPlan {
  /// 1-based index of the mutating op to crash at; 0 = never crash.
  std::uint64_t crash_at_op = 0;

  /// How much of the crashing operation's effect becomes durable — the
  /// "byte offset B within the op" axis of the crash matrix:
  ///   * plain append: the first min(durable_bytes, size) bytes of THAT
  ///     append reach the file after everything already appended (a torn
  ///     streamed write; 0 tears exactly at the previous append
  ///     boundary, and for a one-append stream leaves an empty file —
  ///     what a crash right after open+truncate leaves behind);
  ///   * atomic close: all-or-nothing by contract — the install happens
  ///     only when durable_bytes covers the whole staged stream (the
  ///     rename published before the crash), otherwise nothing survives
  ///     (the torn tmp file is invisible to the directory);
  ///   * remove_file: takes effect only when durable_bytes > 0.
  /// Use kOpDurable for "the op completed, the crash hit just after".
  std::uint64_t durable_bytes = 0;
};

/// CrashPlan::durable_bytes value meaning "the whole op became durable".
constexpr std::uint64_t kOpDurable = ~std::uint64_t{0};

/// Thrown by CrashScheduleEnv when the scheduled operation is reached
/// (and by every operation after it: the process is dead).
struct ScheduledCrash : std::runtime_error {
  explicit ScheduledCrash(std::uint64_t op)
      : std::runtime_error("scheduled crash at env op " + std::to_string(op)),
        op(op) {}
  std::uint64_t op;
};

/// Decorator that executes `plan`: deterministic, reproducible, and
/// exhaustive when driven by enumerate_crash_schedules(). After the crash
/// fires, *every* operation (reads and open handles included) throws
/// ScheduledCrash — a dead process performs no further I/O; the test
/// harness inspects the base env for the durable state.
class CrashScheduleEnv final : public Env {
 public:
  CrashScheduleEnv(Env& base, CrashPlan plan) : base_(base), plan_(plan) {}

  std::unique_ptr<WritableFile> new_writable(const std::string& path,
                                             WriteMode mode) override;
  std::unique_ptr<RandomAccessFile> open_ranged(
      const std::string& path) override;
  void remove_file(const std::string& path) override;

  bool exists(const std::string& path) override {
    ensure_alive();
    return base_.exists(path);
  }
  std::vector<std::string> list_dir(const std::string& dir) override {
    ensure_alive();
    return base_.list_dir(dir);
  }
  std::optional<std::uint64_t> file_size(const std::string& path) override {
    ensure_alive();
    return base_.file_size(path);
  }
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return base_.bytes_written();
  }
  [[nodiscard]] std::uint64_t bytes_read() const override {
    return base_.bytes_read();
  }

  /// Mutating ops seen so far (== total ops of a scenario after an
  /// uncrashed run — the enumeration bound).
  [[nodiscard]] std::uint64_t mutating_ops() const {
    std::lock_guard lock(mu_);
    return ops_;
  }
  [[nodiscard]] bool crashed() const {
    std::lock_guard lock(mu_);
    return crashed_;
  }

 private:
  friend class CrashPlainWritableFile;
  friend class CrashAtomicWritableFile;
  friend class CrashRandomAccessFile;

  void ensure_alive() const;
  /// Counts one mutating op; returns true when it is the one to crash at
  /// (crashed_ is then already set).
  bool tick();

  Env& base_;
  const CrashPlan plan_;
  mutable std::mutex mu_;
  std::uint64_t ops_ = 0;
  bool crashed_ = false;
};

/// Aggregate result of an exhaustive crash-schedule enumeration.
struct CrashEnumeration {
  std::uint64_t total_ops = 0;   ///< mutating ops of the uncrashed scenario
  std::uint64_t points_run = 0;  ///< (K, B) crash points actually replayed
};

/// Replays `scenario` once per crash point: first an uncrashed probe run
/// counts the scenario's mutating ops N, then for every K in [1, N]
/// (striding by `stride` >= 1) and every durable_bytes value in
/// `durable_offsets`, the scenario runs against a fresh base env from
/// `make_base` under a CrashScheduleEnv; the ScheduledCrash is caught and
/// `verify` is invoked with the base env holding exactly the durable
/// state. `verify` is also called after the probe run (plan.crash_at_op
/// == 0) so the no-crash path is checked by the same predicate.
CrashEnumeration enumerate_crash_schedules(
    const std::function<std::unique_ptr<Env>()>& make_base,
    const std::function<void(CrashScheduleEnv&)>& scenario,
    const std::function<void(Env&, const CrashPlan&)>& verify,
    std::uint64_t stride = 1,
    const std::vector<std::uint64_t>& durable_offsets = {0});

}  // namespace qnn::io
