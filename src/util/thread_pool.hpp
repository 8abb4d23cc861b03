// A small work-helping thread pool for CPU-parallel stages.
//
// Two consumers share it:
//   * the checkpoint encode path (chunk keys and compression, submitted
//     ahead of the thread that probes and appends them: the caller's in
//     sync mode, the pipeline thread in async mode);
//   * the state-vector simulator kernels (amplitude-group parallelism).
//
// Design points:
//   * submit() returns a std::future so callers get exception propagation
//     for free;
//   * parallel_for / parallel_reduce let the *calling* thread participate
//     and, while waiting, steal pending pool tasks (run_pending_task), so
//     nested parallelism — a pool task that itself calls parallel_for on
//     the same pool — cannot deadlock even on a single-thread pool;
//   * reductions combine fixed-grain chunk results in index order, so a
//     given input size always produces bit-identical results regardless of
//     the number of threads (run-to-run determinism is load-bearing for
//     bit-exact training resume).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace qnn::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is clamped to 1).
  explicit ThreadPool(std::size_t num_threads = default_thread_count());

  /// Completes all queued work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result. Exceptions thrown
  /// by `fn` surface at future.get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      if (stop_) {
        throw std::runtime_error("ThreadPool: submit after shutdown");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_work_.notify_one();
    return fut;
  }

  /// Runs one queued task on the calling thread, if any. Lets blocked
  /// submitters help drain the pool instead of deadlocking on it.
  bool run_pending_task();

  /// Hardware concurrency, overridable via QNNCKPT_THREADS; at least 1.
  static std::size_t default_thread_count();

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Process-wide shared pool (simulator kernels, sync checkpoint encode).
/// Created on first use with default_thread_count() threads.
ThreadPool& global_pool();

namespace detail {
/// Out-of-line parallel fan-out; only reached when the range actually
/// spans multiple chunks on a real pool.
void parallel_for_impl(
    ThreadPool* pool, std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body);
}  // namespace detail

/// Runs `body(lo, hi)` over [begin, end) in chunks of at most `grain`,
/// on the pool plus the calling thread. Serial when `pool` is null or the
/// range fits a single grain — that path invokes `body` directly with no
/// type erasure, so sub-threshold kernel calls cost a plain loop.
/// Rethrows the first chunk exception after all chunks finish. Chunk
/// boundaries depend only on (begin, end, grain).
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  std::size_t grain, Body&& body) {
  if (end <= begin) {
    return;
  }
  if (grain == 0) {
    grain = 1;
  }
  if (pool == nullptr || pool->size() == 0 || end - begin <= grain) {
    body(begin, end);
    return;
  }
  detail::parallel_for_impl(
      pool, begin, end, grain,
      std::function<void(std::size_t, std::size_t)>(
          std::forward<Body>(body)));
}

/// Chunked reduction: acc = init + sum of body(lo, hi) per grain-sized
/// chunk, combined in ascending chunk order (deterministic for a given
/// input size, independent of thread count). T needs operator+=.
template <typename T, typename Body>
T parallel_reduce(ThreadPool* pool, std::size_t begin, std::size_t end,
                  std::size_t grain, T init, Body&& body) {
  if (end <= begin) {
    return init;
  }
  if (grain == 0) {
    grain = 1;
  }
  if (pool == nullptr || pool->size() == 0 || end - begin <= grain) {
    init += body(begin, end);
    return init;
  }
  const std::size_t n_chunks = (end - begin + grain - 1) / grain;
  std::vector<T> partial(n_chunks, T{});
  parallel_for(pool, 0, n_chunks, 1,
               [&](std::size_t chunk_lo, std::size_t chunk_hi) {
                 for (std::size_t c = chunk_lo; c < chunk_hi; ++c) {
                   const std::size_t lo = begin + c * grain;
                   const std::size_t hi = std::min(end, lo + grain);
                   partial[c] = body(lo, hi);
                 }
               });
  for (const T& p : partial) {
    init += p;
  }
  return init;
}

}  // namespace qnn::util
