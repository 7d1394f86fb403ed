#pragma once
// Clang thread-safety analysis for the whole locking surface.
//
// Every mutex-owning type in src/ uses the wrappers below instead of the
// naked <mutex>/<shared_mutex> primitives (tools/lint.py enforces this).
// Under Clang, `-Wthread-safety` then proves at compile time that every
// access to a `LCP_GUARDED_BY(mu)` field happens with `mu` held, that every
// `*_locked()` helper is only reachable with its `LCP_REQUIRES(mu)`
// capability, and that no path leaks a lock. Under GCC (or any compiler
// without the attributes) the macros expand to nothing and the wrappers
// compile down to the plain standard primitives — zero runtime cost either
// way.
//
// The attribute macros follow the Clang documentation's capability
// vocabulary (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html); the
// wrapper classes mirror the std types they replace:
//
//   Mutex        — std::mutex        + CAPABILITY, locked via MutexLock
//   SharedMutex  — std::shared_mutex + CAPABILITY, *_shared variants
//   CondVar      — std::condition_variable bound to MutexLock
//   MutexLock    — scoped exclusive lock on a Mutex       (SCOPED_CAPABILITY)
//   WriterLock   — scoped exclusive lock on a SharedMutex (SCOPED_CAPABILITY)
//   ReaderLock   — scoped shared    lock on a SharedMutex (SCOPED_CAPABILITY)
//
// This header is the single place where the analysis is allowed to be
// bypassed (LCP_NO_THREAD_SAFETY_ANALYSIS exists for the wrappers' own
// plumbing); annotated code elsewhere must not suppress it.

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LCP_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef LCP_THREAD_ANNOTATION_
#define LCP_THREAD_ANNOTATION_(x)  // not Clang: annotations compile away
#endif

/// Declares a type to be a lockable capability ("mutex" in diagnostics).
#define LCP_CAPABILITY(x) LCP_THREAD_ANNOTATION_(capability(x))
/// Declares an RAII type whose lifetime equals a critical section.
#define LCP_SCOPED_CAPABILITY LCP_THREAD_ANNOTATION_(scoped_lockable)
/// Field may only be read/written with the named capability held
/// (exclusively for writes, at least shared for reads).
#define LCP_GUARDED_BY(x) LCP_THREAD_ANNOTATION_(guarded_by(x))
/// Pointer field whose *pointee* is guarded by the named capability.
#define LCP_PT_GUARDED_BY(x) LCP_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function may only be called with the capability held exclusively
/// (the `*_locked()` helper contract).
#define LCP_REQUIRES(...) \
  LCP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Function may only be called with the capability held at least shared.
#define LCP_REQUIRES_SHARED(...) \
  LCP_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability exclusively and does not release it.
#define LCP_ACQUIRE(...) \
  LCP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function acquires the capability shared and does not release it.
#define LCP_ACQUIRE_SHARED(...) \
  LCP_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
/// Function releases the (exclusive or shared) capability.
#define LCP_RELEASE(...) \
  LCP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define LCP_RELEASE_SHARED(...) \
  LCP_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
/// Function must NOT be called with the capability held (deadlock guard
/// for public entry points of self-locking types).
#define LCP_EXCLUDES(...) LCP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define LCP_RETURN_CAPABILITY(x) LCP_THREAD_ANNOTATION_(lock_returned(x))
/// Escape hatch for the wrappers' own plumbing. Must not appear outside
/// this header (tools/lint.py enforces that, too).
#define LCP_NO_THREAD_SAFETY_ANALYSIS \
  LCP_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace lcp {

class CondVar;

/// std::mutex with the capability attribute, locked through MutexLock.
class LCP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// std::shared_mutex with the capability attribute: exclusive for writers,
/// shared for any number of readers.
class LCP_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() LCP_ACQUIRE() { mu_.lock(); }
  void unlock() LCP_RELEASE() { mu_.unlock(); }
  void lock_shared() LCP_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() LCP_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock on a Mutex. unlock()/lock() allow releasing early
/// (e.g. before a condition-variable notify); the destructor releases
/// whatever is still held.
class LCP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LCP_ACQUIRE(mu) : lock_(mu.mu_) {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() LCP_RELEASE() {}  // std::unique_lock releases iff held

  /// Releases before end of scope (notify-outside-the-lock pattern).
  void unlock() LCP_RELEASE() { lock_.unlock(); }
  /// Re-acquires after an early unlock().
  void lock() LCP_ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class LCP_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) LCP_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;
  ~WriterLock() LCP_RELEASE() { mu_.unlock(); }

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class LCP_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) LCP_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;
  ~ReaderLock() LCP_RELEASE() { mu_.unlock_shared(); }

 private:
  SharedMutex& mu_;
};

/// std::condition_variable bound to MutexLock. The predicate overloads are
/// deliberately absent: a lambda predicate is analyzed as a separate
/// function that cannot see the held lock, so guarded reads inside it
/// would defeat the analysis. Write the wait loop inline instead:
///
///   MutexLock lock{mutex_};
///   while (!condition_involving_guarded_state()) {
///     cv_.wait(lock);
///   }
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases the lock, sleeps, and re-acquires it before
  /// returning — the capability is held across the call as far as the
  /// analysis (correctly) observes.
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lcp
