#pragma once
// Reusable scratch buffers for the compression hot paths.
//
// The parallel compression collapse traced to allocation churn: every
// chunk allocated (and freed) multi-hundred-KiB scratch vectors — codes,
// reconstruction planes, Huffman frequency tables, zlite hash heads. The
// allocator services those with mmap/munmap, and munmap takes the
// process-wide mmap semaphore, so eight workers spend their time
// serialized in the kernel instead of compressing. Recycling the scratch
// keeps every allocation after warm-up thread-local and lock-free.
//
//   ScratchPool<T>  — per-thread free list of std::vector<T>. No locking;
//                     ScratchPool<T>::local() hands each thread its own.
//   ScratchLease<T> — RAII acquire/release on a ScratchPool<T>.
//
// Compressed slab containers are not pooled: each one is a fresh vector
// that the slab encode walk (compress::encode_slabs) hands to its sink,
// which frames, ships or parks it. Slabs are encoded straight from the
// field's memory and decoded straight into the restored field's.
//
// Released buffers are poisoned (first kPoisonBytes overwritten with
// kPoisonByte) so use-after-release reads deterministic garbage instead of
// stale plausible data; the tsan/asan suites assert on the pattern.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace lcp {

inline constexpr std::uint8_t kPoisonByte = 0xDB;
inline constexpr std::size_t kPoisonBytes = 64;

namespace detail {

/// Overwrites the leading bytes of a buffer's live contents.
template <typename T>
void poison_buffer(std::vector<T>& buf) noexcept {
  static_assert(std::is_trivially_copyable_v<T>,
                "pooled buffers must hold trivially copyable elements");
  const std::size_t bytes = buf.size() * sizeof(T);
  if (bytes > 0) {
    std::memset(buf.data(), kPoisonByte, std::min(bytes, kPoisonBytes));
  }
}

}  // namespace detail

/// Per-thread recycling pool of std::vector<T>. acquire() pops the most
/// recently released buffer (cache-hot) or default-constructs one; the
/// returned vector is empty but keeps its old capacity. release() poisons
/// and stores the buffer for reuse. Not thread-safe by design — use
/// local() to get the calling thread's own instance.
template <typename T>
class ScratchPool {
 public:
  /// At most this many buffers are retained; extra releases deallocate.
  static constexpr std::size_t kMaxRetained = 8;

  [[nodiscard]] std::vector<T> acquire(std::size_t reserve_hint = 0) {
    std::vector<T> buf;
    if (!free_.empty()) {
      buf = std::move(free_.back());
      free_.pop_back();
      ++hits_;
    } else {
      ++misses_;
    }
    buf.clear();
    if (reserve_hint > 0) {
      buf.reserve(reserve_hint);
    }
    return buf;
  }

  void release(std::vector<T>&& buf) {
    detail::poison_buffer(buf);
    buf.clear();
    if (buf.capacity() == 0 || free_.size() >= kMaxRetained) {
      return;  // nothing worth keeping / pool is full
    }
    free_.push_back(std::move(buf));
  }

  [[nodiscard]] std::size_t retained() const noexcept { return free_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

  /// The calling thread's pool instance.
  [[nodiscard]] static ScratchPool& local() {
    thread_local ScratchPool pool;
    return pool;
  }

 private:
  std::vector<std::vector<T>> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// RAII lease on a ScratchPool<T> buffer: acquires on construction,
/// releases back on destruction. Access the vector via get()/operator*.
template <typename T>
class ScratchLease {
 public:
  explicit ScratchLease(std::size_t reserve_hint = 0,
                        ScratchPool<T>& pool = ScratchPool<T>::local())
      : pool_(pool), buf_(pool.acquire(reserve_hint)) {}

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  ~ScratchLease() { pool_.release(std::move(buf_)); }

  [[nodiscard]] std::vector<T>& operator*() noexcept { return buf_; }
  [[nodiscard]] std::vector<T>* operator->() noexcept { return &buf_; }
  [[nodiscard]] std::vector<T>& get() noexcept { return buf_; }

 private:
  ScratchPool<T>& pool_;
  std::vector<T> buf_;
};

}  // namespace lcp
