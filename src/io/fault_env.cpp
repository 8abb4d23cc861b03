#include "io/fault_env.hpp"

#include <algorithm>

namespace qnn::io {

void FaultEnv::faulty_write(const std::string& path, ByteSpan data) {
  Bytes copy(data.begin(), data.end());
  bool crash = false;

  {
    std::lock_guard lock(mu_);
    if (!copy.empty() && rng_.uniform() < spec_.torn_write_prob) {
      // Keep a uniformly random strict prefix (possibly empty).
      copy.resize(rng_.uniform_u64(copy.size()));
      ++faults_injected_;
      crash = rng_.uniform() < spec_.crash_prob;
    }
    if (!copy.empty() && rng_.uniform() < spec_.bit_flip_prob) {
      const std::uint64_t bit = rng_.uniform_u64(copy.size() * 8);
      copy[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ++faults_injected_;
    }
  }

  base_.write_file(path, copy);
  if (crash) {
    throw WriteCrash{};
  }
}

/// Buffers the stream and applies the fault roll to the concatenated
/// payload at close — one deterministic fault decision per file.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultEnv& env, std::string path) noexcept
      : env_(env), path_(std::move(path)) {}

  void append(ByteSpan data) override {
    staged_.insert(staged_.end(), data.begin(), data.end());
  }
  void sync() override {}
  void close() override { env_.faulty_write(path_, staged_); }

 private:
  FaultEnv& env_;
  const std::string path_;
  Bytes staged_;
};

std::unique_ptr<WritableFile> FaultEnv::new_writable(const std::string& path,
                                                     WriteMode mode) {
  if (mode == WriteMode::kAtomic && !spec_.fault_atomic_writes) {
    return base_.new_writable(path, mode);
  }
  return std::make_unique<FaultWritableFile>(*this, path);
}

// ---------------------------------------------------------------------------
// CrashScheduleEnv
// ---------------------------------------------------------------------------

void CrashScheduleEnv::ensure_alive() const {
  std::lock_guard lock(mu_);
  if (crashed_) {
    throw ScheduledCrash(plan_.crash_at_op);
  }
}

bool CrashScheduleEnv::tick() {
  std::lock_guard lock(mu_);
  if (crashed_) {
    throw ScheduledCrash(plan_.crash_at_op);
  }
  ++ops_;
  if (plan_.crash_at_op != 0 && ops_ == plan_.crash_at_op) {
    crashed_ = true;
    return true;
  }
  return false;
}

/// The K-th mutating op of a plain stream is each append: a crash there
/// makes the first durable_bytes bytes of THAT append durable on top of
/// everything appended before it — a tear at an arbitrary append/byte
/// boundary within the open handle.
class CrashPlainWritableFile final : public WritableFile {
 public:
  CrashPlainWritableFile(CrashScheduleEnv& env,
                         std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  void append(ByteSpan data) override {
    if (env_.tick()) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(env_.plan_.durable_bytes, data.size()));
      base_->append(data.first(n));
      throw ScheduledCrash(env_.plan_.crash_at_op);
    }
    base_->append(data);
  }
  void sync() override {
    env_.ensure_alive();
    base_->sync();
  }
  void close() override {
    env_.ensure_alive();
    base_->close();
  }

 private:
  CrashScheduleEnv& env_;
  std::unique_ptr<WritableFile> base_;
};

/// Atomic streams stage invisibly; the mutating op is the close (the
/// install). All-or-nothing: the whole stream survives only when
/// durable_bytes covers it, otherwise the staged tmp is abandoned.
class CrashAtomicWritableFile final : public WritableFile {
 public:
  CrashAtomicWritableFile(CrashScheduleEnv& env,
                          std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  void append(ByteSpan data) override {
    env_.ensure_alive();
    base_->append(data);
    staged_ += data.size();
  }
  void sync() override {
    env_.ensure_alive();
    base_->sync();
  }
  void close() override {
    if (env_.tick()) {
      if (env_.plan_.durable_bytes >= staged_) {
        base_->close();
      } else {
        base_.reset();  // abort: the torn tmp is invisible
      }
      throw ScheduledCrash(env_.plan_.crash_at_op);
    }
    base_->close();
  }

 private:
  CrashScheduleEnv& env_;
  std::unique_ptr<WritableFile> base_;
  std::uint64_t staged_ = 0;
};

/// A dead process performs no further I/O — reads through an already-open
/// handle throw after the crash too.
class CrashRandomAccessFile final : public RandomAccessFile {
 public:
  CrashRandomAccessFile(CrashScheduleEnv& env,
                        std::unique_ptr<RandomAccessFile> base)
      : env_(env), base_(std::move(base)) {}

  [[nodiscard]] std::uint64_t size() const override {
    env_.ensure_alive();
    return base_->size();
  }
  Bytes pread(std::uint64_t offset, std::uint64_t n) override {
    env_.ensure_alive();
    return base_->pread(offset, n);
  }

 private:
  CrashScheduleEnv& env_;
  std::unique_ptr<RandomAccessFile> base_;
};

std::unique_ptr<WritableFile> CrashScheduleEnv::new_writable(
    const std::string& path, WriteMode mode) {
  ensure_alive();
  auto base = base_.new_writable(path, mode);
  if (mode == WriteMode::kPlain) {
    return std::make_unique<CrashPlainWritableFile>(*this, std::move(base));
  }
  return std::make_unique<CrashAtomicWritableFile>(*this, std::move(base));
}

std::unique_ptr<RandomAccessFile> CrashScheduleEnv::open_ranged(
    const std::string& path) {
  ensure_alive();
  auto base = base_.open_ranged(path);
  if (!base) {
    return nullptr;
  }
  return std::make_unique<CrashRandomAccessFile>(*this, std::move(base));
}

void CrashScheduleEnv::remove_file(const std::string& path) {
  if (tick()) {
    if (plan_.durable_bytes > 0) {
      base_.remove_file(path);
    }
    throw ScheduledCrash(plan_.crash_at_op);
  }
  base_.remove_file(path);
}

CrashEnumeration enumerate_crash_schedules(
    const std::function<std::unique_ptr<Env>()>& make_base,
    const std::function<void(CrashScheduleEnv&)>& scenario,
    const std::function<void(Env&, const CrashPlan&)>& verify,
    std::uint64_t stride, const std::vector<std::uint64_t>& durable_offsets) {
  CrashEnumeration result;
  {
    // Probe: the uncrashed run bounds the enumeration and must itself
    // leave a state the verifier accepts.
    auto base = make_base();
    CrashScheduleEnv env(*base, CrashPlan{});
    scenario(env);
    result.total_ops = env.mutating_ops();
    verify(*base, CrashPlan{});
  }
  if (stride == 0) {
    stride = 1;
  }
  for (std::uint64_t k = 1; k <= result.total_ops; k += stride) {
    for (const std::uint64_t off : durable_offsets) {
      const CrashPlan plan{.crash_at_op = k, .durable_bytes = off};
      auto base = make_base();
      CrashScheduleEnv env(*base, plan);
      try {
        scenario(env);
      } catch (const ScheduledCrash&) {
        // The process died mid-scenario; the durable state is in *base.
      }
      verify(*base, plan);
      ++result.points_run;
    }
  }
  return result;
}

}  // namespace qnn::io
