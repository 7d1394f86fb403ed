#pragma once
// Join-on-destruction thread handle. The only std::thread owners outside
// src/support/ should be gone: pipeline stages and concurrent tests hold
// a ScopedThread instead, so an early return or an exception
// between spawn and join can never leak a running thread over dangling
// stack references (std::thread would call std::terminate; ScopedThread
// blocks until the stage drains). tools/lint.py enforces the "no naked
// std::thread outside support/" invariant.

#include <thread>
#include <utility>

namespace lcp {

class ScopedThread {
 public:
  ScopedThread() noexcept = default;

  template <typename F, typename... Args>
  explicit ScopedThread(F&& f, Args&&... args)
      : thread_(std::forward<F>(f), std::forward<Args>(args)...) {}

  ScopedThread(ScopedThread&&) noexcept = default;
  ScopedThread& operator=(ScopedThread&& other) noexcept {
    if (this != &other) {
      join();
      thread_ = std::move(other.thread_);
    }
    return *this;
  }

  ScopedThread(const ScopedThread&) = delete;
  ScopedThread& operator=(const ScopedThread&) = delete;

  ~ScopedThread() { join(); }

  /// Blocks until the thread finishes; no-op if never started or already
  /// joined. Pipelines still call this explicitly at the point where the
  /// stage must have drained — the destructor is the safety net.
  void join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  [[nodiscard]] bool joinable() const noexcept { return thread_.joinable(); }

 private:
  std::thread thread_;
};

}  // namespace lcp
