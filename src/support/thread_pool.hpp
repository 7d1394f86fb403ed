#pragma once
// Fork-join thread pool behind every parallel_for in the tree (the pooled
// slab encode and decode walks and the parallel frequency sweep).
//
// `ThreadPool{w}` owns w worker threads that sleep on a condition variable
// between jobs. parallel_for publishes one job — a shared atomic cursor over
// the index range, the grain and the body — wakes the team, and the workers
// and the calling thread claim grain-sized chunks from the cursor until the
// range is exhausted, so a job computes on w + 1 threads. Once the caller
// runs out of chunks it closes the job and waits for every worker that
// joined it to check out, so nothing of the job outlives the call. A worker
// that wakes after the close skips the job: the caller never waits on the
// wakeup of a thread that has no work left to claim.
//
// Calls from different threads take turns. A call made from inside a body
// running on the same pool (nested use) runs inline on the calling thread,
// so nested parallel_for cannot deadlock the pool.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace lcp {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size();
  }

  /// Runs body(i) for i in [begin, end) on the workers and the calling
  /// thread, blocking until all iterations finish. The first exception a
  /// body throws stops the walk early and is rethrown here; the pool stays
  /// usable. `grain` is the number of consecutive indices claimed per
  /// chunk; 0 picks n / (4 * (worker_count() + 1)), at least 1.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 0);

 private:
  /// The published part of a job; workers copy it under mutex_.
  struct Job {
    std::size_t end = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t)>* body = nullptr;
  };

  void worker_loop();
  /// Claims and runs chunks of `job` until the cursor passes its end.
  void run_chunks(const Job& job);

  std::vector<std::thread> threads_;

  Mutex call_mutex_;  // one job at a time: callers from other threads queue
  Mutex mutex_;
  CondVar wake_cv_;  // workers: a new open job or stopping_
  CondVar done_cv_;  // caller: active_ reached zero
  Job job_ LCP_GUARDED_BY(mutex_);
  std::uint64_t generation_ LCP_GUARDED_BY(mutex_) = 0;  // jobs published
  bool open_ LCP_GUARDED_BY(mutex_) = false;     // workers may still join
  std::size_t active_ LCP_GUARDED_BY(mutex_) = 0;  // joined, not checked out
  bool stopping_ LCP_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ LCP_GUARDED_BY(mutex_);  // first one wins
  std::atomic<std::size_t> next_{0};  // the job's chunk cursor
};

/// The process-wide team of the checkpoint paths: write_checkpoint
/// compresses its slabs on it, the incremental store hashes its raw slabs
/// on it, and the checkpoint readers decode slabs on it. Built on first
/// use with max(1, hardware_concurrency() - 1) workers: with the calling
/// thread that makes one compute thread per CPU. Calls from different
/// threads take turns on it like on any pool.
[[nodiscard]] ThreadPool& shared_pool();

}  // namespace lcp
