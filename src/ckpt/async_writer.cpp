#include "ckpt/async_writer.hpp"

#include <algorithm>

namespace qnn::ckpt {

AsyncWriter::AsyncWriter(io::Env& env, std::size_t queue_capacity,
                         std::size_t num_workers,
                         obs::MetricsRegistry* metrics)
    : env_(env),
      capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      metrics_(obs::shared_or_own(metrics, own_metrics_)),
      jobs_(metrics_.counter("writer.jobs")),
      bytes_(metrics_.counter("writer.bytes")),
      failures_(metrics_.counter("writer.failures")),
      dropped_(metrics_.counter("writer.dropped")) {
  const std::size_t n = std::max<std::size_t>(1, num_workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AsyncWriter::~AsyncWriter() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

bool AsyncWriter::submit(Job job) {
  std::unique_lock lock(mu_);
  cv_space_.wait(lock, [this] { return queue_.size() < capacity_ || stop_; });
  if (stop_) {
    // Shutting down: refuse instead of silently losing the job — the
    // destructor drains what is already queued, not what never arrived.
    dropped_.add();
    return false;
  }
  bytes_.add(job.data.size());
  queue_.push_back(std::move(job));
  cv_work_.notify_one();
  return true;
}

void AsyncWriter::flush() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

AsyncWriter::Stats AsyncWriter::stats() const {
  return {.jobs = jobs_.value(),
          .bytes = bytes_.value(),
          .failures = failures_.value(),
          .dropped = dropped_.value()};
}

void AsyncWriter::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock, [this] { return !queue_.empty() || stop_; });
      if (queue_.empty()) {
        // stop_ set and nothing left to drain.
        cv_idle_.notify_all();
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      cv_space_.notify_one();
    }

    bool ok = true;
    try {
      // Prerequisites first (the streamed packfile commits before the
      // checkpoint that references it): the dependency order IS the
      // crash-consistency argument.
      if (job.pre_install) {
        job.pre_install();
      }
      env_.write_file_atomic(job.path, job.data);
    } catch (const std::exception&) {
      ok = false;
    }

    if (ok && job.on_installed) {
      try {
        job.on_installed();
      } catch (const std::exception&) {
        ok = false;
      }
    }

    if (!ok && job.on_failed) {
      try {
        job.on_failed();
      } catch (const std::exception&) {
        // Compensation must never take down the writer.
      }
    }

    jobs_.add();
    if (!ok) {
      failures_.add();
    }
    {
      std::lock_guard lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        cv_idle_.notify_all();
      }
    }
  }
}

}  // namespace qnn::ckpt
