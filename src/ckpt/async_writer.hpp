// Background checkpoint pipeline.
//
// Training should not stall on storage: the trainer hands each
// checkpoint's write to one background thread through a bounded FIFO
// queue and continues computing. When the queue is full the submitter
// blocks — backpressure rather than unbounded memory. One worker runs the
// tasks strictly in submission order, so a delta child is never written
// before its parent. Tasks run and failed (threw), and tasks refused at
// shutdown, count into writer.* registry counters.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"

namespace qnn::ckpt {

class AsyncWriter {
 public:
  /// One unit of background work. A task that throws counts in
  /// writer.failures; any compensation is the task's own.
  using Task = std::function<void()>;

  /// Snapshot of the writer.* counters.
  struct Stats {
    std::uint64_t jobs = 0;      ///< writer.jobs: tasks run (ok or failed)
    std::uint64_t failures = 0;  ///< writer.failures: tasks that threw
    std::uint64_t dropped = 0;   ///< writer.dropped: refused at shutdown
  };

  /// Up to `queue_capacity` (at least 1) tasks wait behind the running
  /// one. Counts into `metrics` (borrowed), or a private registry when
  /// null.
  explicit AsyncWriter(std::size_t queue_capacity,
                       obs::MetricsRegistry* metrics = nullptr);

  /// Drains the queue, then joins the worker.
  ~AsyncWriter();

  AsyncWriter(const AsyncWriter&) = delete;
  AsyncWriter& operator=(const AsyncWriter&) = delete;

  /// Blocks until the queue has room for one more task (or the writer is
  /// stopping) and returns the seconds it waited: exactly 0 when there
  /// was room at once. With one submitting thread, the submit() that
  /// follows does not block.
  double wait_for_room();

  /// Enqueues a task; blocks while the queue is at capacity. Returns true
  /// when the task was queued, false when it was refused because the
  /// writer is shutting down (counted in writer.dropped) — callers must
  /// treat a false return as "not persisted".
  [[nodiscard]] bool submit(Task task);

  /// Blocks until every submitted task has run.
  void flush();

  [[nodiscard]] Stats stats() const;

 private:
  void worker_loop();
  /// mu_ held: a task fits, or the writer is stopping.
  [[nodiscard]] bool has_room() const {
    return queue_.size() < capacity_ || stop_;
  }

  const std::size_t capacity_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  ///< when none passed
  obs::MetricsRegistry& metrics_;
  obs::CounterShare jobs_;
  obs::CounterShare failures_;
  obs::CounterShare dropped_;

  std::mutex mu_;
  std::condition_variable cv_space_;  ///< signalled when queue shrinks
  std::condition_variable cv_work_;   ///< signalled when work arrives/stops
  std::condition_variable cv_idle_;   ///< signalled when fully drained
  std::deque<Task> queue_;
  bool busy_ = false;  ///< the worker is running a task
  bool stop_ = false;

  std::thread worker_;
};

}  // namespace qnn::ckpt
