#pragma once
// Streaming dump engine: parallel slab compression overlapped with framed
// NFS writes. The serial dump path compresses the whole field, frames it,
// and only then starts writing; this engine runs the two stages as a
// pipeline so slab i's frame chunk is on the wire while slab i+1 is still
// compressing.
//
//   caller: placeholder header, manifest chunk 0
//   compress::encode_slabs(..., &pool): pool threads + caller compress
//   slabs out of order; the thread that completes the run of slabs next
//   in order takes the hand-off role and runs this engine's sink on every
//   consecutive finished slab
//        -> FramedWriter.append_chunk -> take_emitted()
//        -> NfsClient::FileStream::append
//   caller, after the walk: trailing manifest, frame tail, back-patch of
//   the frame header at offset 0
//
// write_checkpoint and the incremental store run the same encode walk
// with their own sinks and no pool. The sink runs on the compressing
// threads, one at a time, while the others keep compressing; the dump
// starts no thread of its own, so its CPU demand is the pool's and the
// caller's. At most 4 compressed slabs wait in order for the sink before
// compression stalls (a fixed backlog, see encode_slabs).
//
// The bytes that land on the server are byte-identical to
// compress::write_checkpoint(field, options) — same manifest chunk 0,
// same slab chunks in order, same trailing manifest replica, same frame
// header/trailer — so the existing read_checkpoint / recover_checkpoint
// paths decode a streamed dump unchanged. The only wire-visible cost of
// streaming is the placeholder header (kFrameHeaderBytes zeros) written
// before the first chunk and overwritten at the end: the header's chunk
// count and payload CRC are only known once the last slab is sealed.
//
// Modeled-time accounting for the overlap (what the tuning layer prices)
// lives in tuning::plan (RuleClocks with a pipeline depth); the measured
// per-slab timings this engine reports feed the scaling bench's makespan
// model.

#include <string>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "io/nfs_client.hpp"
#include "support/thread_pool.hpp"
#include "support/units.hpp"

namespace lcp::core {

struct StreamingDumpConfig {
  /// Codec, bound and slab size — the wire format contract is shared with
  /// compress::write_checkpoint.
  compress::CheckpointOptions checkpoint;
};

struct StreamingDumpStats {
  std::size_t slabs = 0;
  Bytes input_bytes;    ///< raw field bytes
  Bytes payload_bytes;  ///< framed payload (manifest + slabs + replica)
  Bytes wire_bytes;     ///< bytes put on the wire, incl. placeholder header
  std::uint32_t frame_chunks = 0;
  /// Per-slab compression wall time, in slab order (worker-measured, so
  /// contention on an oversubscribed host is included).
  std::vector<Seconds> slab_seconds;
  Seconds compress_seconds{0.0};  ///< sum of slab_seconds
  Seconds write_seconds{0.0};     ///< time spent in stream writes
  Seconds wall_seconds{0.0};      ///< end-to-end engine wall time
};

/// Runs the pipeline: compresses `field` slab-by-slab on `pool`, streams
/// the framed checkpoint to `client` at `path`, and verifies the stored
/// size. On success the server holds exactly write_checkpoint's bytes.
[[nodiscard]] Expected<StreamingDumpStats> streaming_dump(
    const data::Field& field, ThreadPool& pool, io::NfsClient& client,
    const std::string& path, const StreamingDumpConfig& config = {});

}  // namespace lcp::core
