// Background checkpoint writer.
//
// Training should not stall on storage: the trainer (or the encode
// pipeline) hands the encoded checkpoint to a pool of writer threads
// through a bounded queue (double buffering by default) and continues
// computing. When the queue is full the submitter blocks — backpressure
// rather than unbounded memory. Multiple workers overlap independent
// installs (useful on high-queue-depth devices and mirrored Envs);
// per-file atomicity still comes from Env::write_file_atomic. Jobs,
// bytes, failures and refusals count into writer.* registry counters.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/env.hpp"
#include "obs/metrics.hpp"

namespace qnn::ckpt {

class AsyncWriter {
 public:
  struct Job {
    std::string path;
    util::Bytes data;
    /// Runs on a writer thread strictly BEFORE the main write: installs
    /// the job's prerequisites — e.g. committing the checkpoint's
    /// STREAMED chunk packfile (Batch::commit), whose records must be
    /// durable before any file referencing its chunks exists. Throwing
    /// fails the whole job (on_failed; the main file is never written).
    std::function<void()> pre_install;
    /// Runs on a writer thread after a successful atomic install
    /// (manifest update + retention).
    std::function<void()> on_installed;
    /// Runs on a writer thread when the write (or on_installed) threw:
    /// the job is not durable and the submitter may need to compensate
    /// (e.g. force the next incremental checkpoint to be full).
    std::function<void()> on_failed;
  };

  /// Snapshot of the writer.* counters.
  struct Stats {
    std::uint64_t jobs = 0;      ///< writer.jobs: jobs run (ok or failed)
    std::uint64_t bytes = 0;     ///< writer.bytes: job data queued
    std::uint64_t failures = 0;  ///< writer.failures: jobs whose write threw
    std::uint64_t dropped = 0;   ///< writer.dropped: refused at shutdown
  };

  /// Counts into `metrics` (borrowed), or a private registry when null.
  explicit AsyncWriter(io::Env& env, std::size_t queue_capacity = 2,
                       std::size_t num_workers = 1,
                       obs::MetricsRegistry* metrics = nullptr);

  /// Drains the queue, then joins the workers.
  ~AsyncWriter();

  AsyncWriter(const AsyncWriter&) = delete;
  AsyncWriter& operator=(const AsyncWriter&) = delete;

  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }

  /// Enqueues a job; blocks while the queue is at capacity. Returns true
  /// when the job was queued, false when it was refused because the writer
  /// is shutting down (counted in writer.dropped) — callers must treat a
  /// false return as "not persisted".
  [[nodiscard]] bool submit(Job job);

  /// Blocks until every submitted job has been installed (or failed).
  void flush();

  [[nodiscard]] Stats stats() const;

 private:
  void worker_loop();

  io::Env& env_;
  const std::size_t capacity_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  ///< when none passed
  obs::MetricsRegistry& metrics_;
  obs::CounterShare jobs_;
  obs::CounterShare bytes_;
  obs::CounterShare failures_;
  obs::CounterShare dropped_;

  std::mutex mu_;
  std::condition_variable cv_space_;  ///< signalled when queue shrinks
  std::condition_variable cv_work_;   ///< signalled when work arrives/stops
  std::condition_variable cv_idle_;   ///< signalled when fully drained
  std::deque<Job> queue_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace qnn::ckpt
