#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace lcp {
namespace {

/// The pool whose job the current thread is running, if any: a worker's own
/// pool, or the pool a caller is inside parallel_for of. A parallel_for on
/// that pool from this thread is nested and runs inline.
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock{mutex_};
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::worker_loop() {
  tls_pool = this;
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      MutexLock lock{mutex_};
      while (!stopping_ && (!open_ || generation_ == seen)) {
        wake_cv_.wait(lock);
      }
      if (stopping_) {
        return;
      }
      seen = generation_;
      job = job_;
      ++active_;
    }
    run_chunks(job);
    const MutexLock lock{mutex_};
    if (--active_ == 0) {
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::run_chunks(const Job& job) {
  for (;;) {
    const std::size_t lo =
        next_.fetch_add(job.grain, std::memory_order_relaxed);
    if (lo >= job.end) {
      return;
    }
    const std::size_t hi = std::min(job.end, lo + job.grain);
    try {
      for (std::size_t i = lo; i < hi; ++i) {
        (*job.body)(i);
      }
    } catch (...) {
      next_.store(job.end, std::memory_order_relaxed);  // abort the walk
      const MutexLock lock{mutex_};
      if (!error_) {
        error_ = std::current_exception();
      }
      return;
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (begin >= end) {
    return;
  }
  const std::size_t n = end - begin;
  if (grain == 0) {
    // A few chunks per thread balances load against claim overhead.
    grain = std::max<std::size_t>(1, n / (4 * (worker_count() + 1)));
  }
  if (n <= grain || tls_pool == this) {
    // One chunk, or a nested call from a body on this pool: run inline.
    for (std::size_t i = begin; i < end; ++i) {
      body(i);
    }
    return;
  }

  const MutexLock call{call_mutex_};
  const Job job{end, grain, &body};
  {
    const MutexLock lock{mutex_};
    job_ = job;
    next_.store(begin, std::memory_order_relaxed);
    open_ = true;
    ++generation_;
  }
  wake_cv_.notify_all();

  const ThreadPool* const outer = tls_pool;
  tls_pool = this;
  run_chunks(job);
  tls_pool = outer;

  std::exception_ptr error;
  {
    MutexLock lock{mutex_};
    open_ = false;  // the cursor is spent: a worker joining now has no work
    while (active_ != 0) {
      done_cv_.wait(lock);
    }
    error = std::exchange(error_, nullptr);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

ThreadPool& shared_pool() {
  // hardware_concurrency() may report 0 (unknown): that gets 1 worker too.
  static ThreadPool pool{std::size_t{
      std::max(2u, std::thread::hardware_concurrency()) - 1u}};
  return pool;
}

}  // namespace lcp
