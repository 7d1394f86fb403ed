#include "core/streaming_dump.hpp"

#include <numeric>
#include <span>

#include "compress/common/framing.hpp"
#include "support/timer.hpp"

namespace lcp::core {

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
  const std::size_t slab_count =
      compress::checkpoint_slab_count(field, config.checkpoint);

  StreamingDumpStats stats;
  stats.slabs = slab_count;
  stats.input_bytes = field.size_bytes();
  stats.slab_seconds.assign(slab_count, Seconds{0.0});

  auto stream = client.begin_file_stream(path);
  // Checkpoint flag, as write_checkpoint.
  compress::FramedWriter framed{compress::kFrameFlagCheckpoint};
  // Every stream write is timed into stats.write_seconds.
  const auto timed = [&stats](const auto& write) {
    Timer t;
    const Status st = write();
    stats.write_seconds = stats.write_seconds + t.elapsed();
    return st;
  };
  const auto ship = [&](std::span<const std::uint8_t> bytes) {
    return timed([&] { return stream.append(bytes); });
  };
  const auto ship_chunk = [&](std::span<const std::uint8_t> chunk) {
    framed.append_chunk(chunk);
    return ship(framed.take_emitted());
  };

  // Placeholder header: its chunk count and payload CRC are only known
  // after the last chunk, so real bytes are back-patched at the end.
  const std::vector<std::uint8_t> zeros(compress::kFrameHeaderBytes, 0);
  Status st = ship(zeros);
  if (st.is_ok()) {
    st = ship_chunk(*manifest_bytes);
  }
  if (st.is_ok()) {
    // The sink runs on whichever compressing thread holds encode_slabs'
    // hand-off role, one slab at a time, so the frame writer, the stream
    // and the stats need no lock.
    std::vector<std::size_t> all(slab_count);
    std::iota(all.begin(), all.end(), std::size_t{0});
    st = compress::encode_slabs(
        field, config.checkpoint, all,
        [&](const compress::EncodedSlab& slab) {
          stats.slab_seconds[slab.slab] = slab.compress_seconds;
          return ship_chunk(slab.container);
        },
        &pool);
  }
  if (st.is_ok()) {
    st = ship_chunk(*manifest_bytes);  // trailing replica
  }
  if (st.is_ok()) {
    auto tail = framed.finish_streaming();
    st = ship(tail.body);
    if (st.is_ok()) {
      st = ship(tail.trailer);
    }
    if (st.is_ok()) {
      st = timed([&] { return stream.write_at(0, tail.header); });
    }
    if (st.is_ok()) {
      st = stream.finish();
    }
  }
  if (!st.is_ok()) {
    return st.with_context("streaming_dump");
  }

  stats.frame_chunks = framed.chunks_emitted();
  stats.payload_bytes = Bytes{framed.payload_bytes()};
  stats.wire_bytes = Bytes{stream.bytes_written()};
  for (const Seconds s : stats.slab_seconds) {
    stats.compress_seconds = stats.compress_seconds + s;
  }
  stats.wall_seconds = wall_timer.elapsed();
  return stats;
}

}  // namespace lcp::core
