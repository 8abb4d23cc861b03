#include "ckpt/async_writer.hpp"

#include "util/timer.hpp"

namespace qnn::ckpt {

AsyncWriter::AsyncWriter(std::size_t queue_capacity,
                         obs::MetricsRegistry* metrics)
    : capacity_(queue_capacity),
      metrics_(obs::shared_or_own(metrics, own_metrics_)),
      jobs_(metrics_.counter("writer.jobs")),
      failures_(metrics_.counter("writer.failures")),
      dropped_(metrics_.counter("writer.dropped")),
      worker_([this] { worker_loop(); }) {}

AsyncWriter::~AsyncWriter() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  worker_.join();
}

double AsyncWriter::wait_for_room() {
  std::unique_lock lock(mu_);
  if (has_room()) {
    return 0.0;
  }
  const util::Timer waited;
  cv_space_.wait(lock, [this] { return has_room(); });
  return waited.seconds();
}

bool AsyncWriter::submit(Task task) {
  std::unique_lock lock(mu_);
  cv_space_.wait(lock, [this] { return has_room(); });
  if (stop_) {
    // Shutting down: refuse instead of silently losing the task — the
    // destructor drains what is already queued, not what never arrived.
    dropped_.add();
    return false;
  }
  queue_.push_back(std::move(task));
  cv_work_.notify_one();
  return true;
}

void AsyncWriter::flush() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

AsyncWriter::Stats AsyncWriter::stats() const {
  return {.jobs = jobs_.value(),
          .failures = failures_.value(),
          .dropped = dropped_.value()};
}

void AsyncWriter::worker_loop() {
  std::unique_lock lock(mu_);
  while (true) {
    cv_work_.wait(lock, [this] { return !queue_.empty() || stop_; });
    if (queue_.empty()) {
      return;  // stop_ set and nothing left to drain
    }
    Task task = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    // notify_all: a wait_for_room() waiter does not take the slot, so
    // waking only it could strand a blocked submit().
    cv_space_.notify_all();
    lock.unlock();

    bool ok = true;
    try {
      task();
    } catch (...) {
      ok = false;
    }
    task = nullptr;  // what the task holds dies before flush() returns
    jobs_.add();
    if (!ok) {
      failures_.add();
    }

    lock.lock();
    busy_ = false;
    if (queue_.empty()) {
      cv_idle_.notify_all();
    }
  }
}

}  // namespace qnn::ckpt
