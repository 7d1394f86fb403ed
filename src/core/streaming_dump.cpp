#include "core/streaming_dump.hpp"

#include <map>
#include <span>
#include <utility>

#include "compress/common/framing.hpp"
#include "compress/common/registry.hpp"
#include "support/thread_annotations.hpp"
#include "support/timer.hpp"

namespace lcp::core {
namespace {

/// The frame parameters write_checkpoint uses.
compress::FrameParams checkpoint_frame() {
  compress::FrameParams params;
  params.flags = compress::kFrameFlagCheckpoint;
  return params;
}

/// Ships compressed slabs to the stream in slab order, from the threads
/// that compress them. Slabs finish out of order on the pool; each one is
/// parked here, and the thread that finds the next slab in order parked
/// takes the shipping role and ships every consecutive parked slab while
/// the other threads keep compressing. Shipping thus runs on a thread
/// that already holds a CPU, and the dump uses no thread beyond the pool
/// and the caller. (With a dedicated writer thread, the dump's wall time
/// would depend on whether the host has a spare CPU for that thread at
/// every hand-off.)
///
/// The role passes between threads under `mutex_`; the frame writer, the
/// stream and the write timer are touched only by the role's holder (or
/// by the caller before and after the parallel loop), so they need no
/// lock of their own.
class OrderedShipper {
 public:
  OrderedShipper(io::NfsClient::FileStream& stream, std::size_t capacity)
      : stream_(stream), capacity_(capacity) {}

  /// Frames `chunk` and ships what the frame emitted. Callers hold the
  /// shipping role, or run before or after the parallel loop.
  Status ship_chunk(std::span<const std::uint8_t> chunk) {
    framed_.append_chunk(chunk);
    return ship(framed_.take_emitted());
  }

  /// Ships raw bytes at the running offset (the placeholder header).
  Status ship(std::span<const std::uint8_t> bytes) {
    Timer t;
    const Status st = stream_.append(bytes);
    write_seconds_ = write_seconds_ + t.elapsed();
    return st;
  }

  /// Overwrites the placeholder header at offset 0.
  Status patch_header(std::span<const std::uint8_t> header) {
    Timer t;
    const Status st = stream_.write_at(0, header);
    write_seconds_ = write_seconds_ + t.elapsed();
    return st;
  }

  /// Parks slab `index`. If it completes the run of slabs next in order
  /// and no thread is shipping, this thread takes the shipping role and
  /// ships parked slabs in order until the next one is missing, releasing
  /// the lock while each slab ships. Otherwise it returns at once, unless
  /// `capacity` slabs already wait in order for the shipping thread: then
  /// it waits for them to drain, so a slow wire stalls compression rather
  /// than buffering the dump.
  void deliver(std::size_t index, std::vector<std::uint8_t> container) {
    MutexLock lock{mutex_};
    if (!status_.is_ok()) {
      return;
    }
    parked_.emplace(index, std::move(container));
    ++delivered_;
    while (status_.is_ok() && shipping_ && backlog_full()) {
      cv_.wait(lock);
    }
    if (!status_.is_ok() || shipping_ || !parked_.contains(next_)) {
      return;  // failed, or another thread will ship this slab
    }
    shipping_ = true;
    for (auto it = parked_.find(next_); it != parked_.end();
         it = parked_.find(next_)) {
      const std::vector<std::uint8_t> slab = std::move(it->second);
      parked_.erase(it);
      ++next_;
      cv_.notify_all();
      lock.unlock();
      const Status st = ship_chunk(slab);
      lock.lock();
      if (!st.is_ok()) {
        if (status_.is_ok()) {
          status_ = st;
        }
        break;
      }
    }
    shipping_ = false;
    cv_.notify_all();
  }

  /// Records the first failure; later deliveries are dropped and waiting
  /// threads return.
  void fail(const Status& st) {
    const MutexLock lock{mutex_};
    if (status_.is_ok()) {
      status_ = st;
    }
    cv_.notify_all();
  }

  [[nodiscard]] Status status() const {
    const MutexLock lock{mutex_};
    return status_;
  }
  [[nodiscard]] std::size_t shipped() const {
    const MutexLock lock{mutex_};
    return next_;
  }
  [[nodiscard]] std::uint64_t delivered() const {
    const MutexLock lock{mutex_};
    return delivered_;
  }

  compress::FramedWriter& framed() { return framed_; }
  [[nodiscard]] Seconds write_seconds() const { return write_seconds_; }

 private:
  /// True when `capacity_` slabs from `next_` on are parked.
  bool backlog_full() const LCP_REQUIRES(mutex_) {
    for (std::size_t k = 0; k < capacity_; ++k) {
      if (!parked_.contains(next_ + k)) {
        return false;
      }
    }
    return true;
  }

  io::NfsClient::FileStream& stream_;
  const std::size_t capacity_;
  compress::FramedWriter framed_{checkpoint_frame()};
  Seconds write_seconds_{0.0};

  mutable Mutex mutex_;
  CondVar cv_;
  std::map<std::size_t, std::vector<std::uint8_t>> parked_
      LCP_GUARDED_BY(mutex_);
  std::size_t next_ LCP_GUARDED_BY(mutex_) = 0;
  std::uint64_t delivered_ LCP_GUARDED_BY(mutex_) = 0;
  bool shipping_ LCP_GUARDED_BY(mutex_) = false;
  Status status_ LCP_GUARDED_BY(mutex_) = Status::ok();
};

}  // namespace

Expected<StreamingDumpStats> streaming_dump(const data::Field& field,
                                            ThreadPool& pool,
                                            io::NfsClient& client,
                                            const std::string& path,
                                            const StreamingDumpConfig& config) {
  Timer wall_timer;
  auto manifest_bytes = checkpoint_manifest(field, config.checkpoint);
  if (!manifest_bytes) {
    return manifest_bytes.status().with_context("streaming_dump");
  }
  if (config.queue_capacity == 0) {
    return Status::invalid_argument("streaming dump: zero queue capacity");
  }
  auto codec = compress::make_compressor(config.checkpoint.codec);
  if (!codec) {
    return codec.status().with_context("streaming_dump");
  }
  const std::size_t slab_count =
      compress::checkpoint_slab_count(field, config.checkpoint);

  StreamingDumpStats stats;
  stats.slabs = slab_count;
  stats.input_bytes = field.size_bytes();
  stats.slab_seconds.assign(slab_count, Seconds{0.0});

  auto stream = client.begin_file_stream(path);
  OrderedShipper shipper{stream, config.queue_capacity};

  // Placeholder header: its chunk count and payload CRC are only known
  // after the last chunk, so real bytes are back-patched at the end.
  const std::vector<std::uint8_t> zeros(compress::kFrameHeaderBytes, 0);
  Status st = shipper.ship(zeros);
  if (st.is_ok()) {
    st = shipper.ship_chunk(*manifest_bytes);
  }
  if (!st.is_ok()) {
    return st.with_context("streaming_dump");
  }

  pool.parallel_for(
      0, slab_count,
      [&](std::size_t s) {
        if (!shipper.status().is_ok()) {
          return;  // pipeline already aborted; skip the remaining work
        }
        Timer t;
        auto container =
            compress::compress_checkpoint_slab(field, config.checkpoint, s,
                                               **codec);
        const Seconds elapsed = t.elapsed();
        if (!container) {
          shipper.fail(container.status());
          return;
        }
        stats.slab_seconds[s] = elapsed;
        shipper.deliver(s, std::move(*container));
      },
      /*grain=*/1);

  // parallel_for has joined every thread that shipped, so the caller now
  // owns the frame writer and the stream.
  st = shipper.status();
  if (st.is_ok() && shipper.shipped() != slab_count) {
    st = Status::internal("streaming dump: slabs left unshipped");
  }
  if (st.is_ok()) {
    compress::FramedWriter& framed = shipper.framed();
    st = shipper.ship_chunk(*manifest_bytes);  // trailing replica
    auto tail = framed.finish_streaming();
    if (st.is_ok()) {
      st = shipper.ship(tail.body);
    }
    if (st.is_ok()) {
      st = shipper.ship(tail.trailer);
    }
    if (st.is_ok()) {
      st = shipper.patch_header(tail.header);
    }
    if (st.is_ok()) {
      st = stream.finish();
    }
    stats.frame_chunks = framed.chunks_emitted();
    stats.payload_bytes = Bytes{framed.payload_bytes()};
    stats.wire_bytes = Bytes{stream.bytes_written()};
  }
  if (!st.is_ok()) {
    return st.with_context("streaming_dump");
  }

  stats.write_seconds = shipper.write_seconds();
  for (const Seconds s : stats.slab_seconds) {
    stats.compress_seconds = stats.compress_seconds + s;
  }
  stats.queue_pushes = shipper.delivered();
  stats.wall_seconds = wall_timer.elapsed();
  return stats;
}

}  // namespace lcp::core
