#pragma once
// Resilient checkpoint containers: a field is split into element slabs,
// each slab compressed independently with a registered codec and framed
// as one CRC-protected chunk (framing.hpp). A manifest chunk describing
// codec/bound/dims travels as chunk 0 with an identical replica as the
// last chunk, so either end of the stream can be lost without losing the
// layout. One flipped bit or truncated tail then costs one slab, not the
// whole 512 GB dump — recover() decodes every intact slab and fills the
// lost regions per a RecoveryPolicy instead of failing wholesale.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "compress/common/codec.hpp"
#include "compress/common/framing.hpp"
#include "data/field.hpp"
#include "support/bytestream.hpp"
#include "support/status.hpp"
#include "support/units.hpp"

namespace lcp {
class ThreadPool;
}  // namespace lcp

namespace lcp::compress {

struct CheckpointOptions {
  /// Any name make_compressor(name) accepts ("sz", "sz2", "zfp",
  /// "lossless").
  std::string codec = "sz";
  ErrorBound bound = ErrorBound::absolute(1e-3);
  /// Elements per slab. Smaller slabs bound the blast radius of a
  /// corruption at the cost of per-chunk overhead and lower ratios (each
  /// slab compresses independently); see tuning::recommended_chunk_bytes
  /// for the trade-off model.
  std::size_t chunk_elements = 1 << 15;
};

/// The one slab geometry and codec contract of every framed path: the
/// checkpoint manifest and the incremental journal's generation entries
/// both embed it. Slab s covers elements [slab_offset(s),
/// slab_offset(s) + slab_elements(s)) of the flattened field.
struct SlabLayout {
  std::string codec;  ///< make_compressor name
  ErrorBound bound;
  data::Dims dims;
  std::string field_name;
  std::uint64_t chunk_elements = 0;  ///< elements per slab (last may be short)

  /// The layout write_checkpoint slices `field` into under `options`.
  [[nodiscard]] static SlabLayout of(const data::Field& field,
                                     const CheckpointOptions& options);

  /// Number of slabs (0 elements or chunk_elements -> 0 slabs).
  [[nodiscard]] std::size_t slab_count() const noexcept;
  [[nodiscard]] std::size_t slab_offset(std::size_t slab) const noexcept;
  [[nodiscard]] std::size_t slab_elements(std::size_t slab) const noexcept;
  /// Slab `slab`'s elements of `field`, which must have this layout's dims.
  [[nodiscard]] std::span<const float> slab_values(
      const data::Field& field, std::size_t slab) const noexcept;

  bool operator==(const SlabLayout&) const = default;
};

/// Serializes `layout` (codec, bound mode and value, rank, extents, field
/// name, chunk_elements — in that order) onto `w`.
void write_slab_layout(ByteWriter& w, const SlabLayout& layout);

/// Reads what write_slab_layout wrote, rejecting an unknown bound mode, a
/// rank outside [1, 4], zero extents, element counts above
/// kMaxContainerElements and a zero chunk_elements. `what` names the
/// record in error messages ("manifest", "journal entry").
[[nodiscard]] Expected<SlabLayout> read_slab_layout(ByteReader& r,
                                                    std::string_view what);

/// Compresses `field` slab-by-slab into a framed checkpoint stream. Slabs
/// compress on shared_pool(); the calling thread frames them in slab order
/// after the join, so the bytes are the inline walk's.
[[nodiscard]] Expected<std::vector<std::uint8_t>> write_checkpoint(
    const data::Field& field, const CheckpointOptions& options);

// Building blocks of the one slab encode walk. write_checkpoint, the
// streaming dump engine (core/streaming_dump.hpp) and the incremental
// store (core/incremental_checkpoint.hpp) all compress slabs through
// encode_slabs and differ only in the sink: a frame writer, a frame
// writer shipping to an NFS stream, and a dedup + replicated object put.
// A checkpoint stream is the manifest as chunk 0, compressed slabs as
// chunks 1..N in order, the manifest replica last, all under a
// kFrameFlagCheckpoint frame.

/// Number of element slabs `field` splits into (0 elements -> 0 slabs).
[[nodiscard]] std::size_t checkpoint_slab_count(
    const data::Field& field, const CheckpointOptions& options) noexcept;

/// Serialized manifest chunk for `field` under `options`.
[[nodiscard]] Expected<std::vector<std::uint8_t>> checkpoint_manifest(
    const data::Field& field, const CheckpointOptions& options);

/// Compresses slab `slab_index` exactly as write_checkpoint does, straight
/// from the field's memory (a 1-D container named after the field).
/// `codec` must be an instance of options.codec (passed in so callers
/// construct it once per walk, not once per slab).
[[nodiscard]] Expected<std::vector<std::uint8_t>> compress_checkpoint_slab(
    const data::Field& field, const CheckpointOptions& options,
    std::size_t slab_index, const Compressor& codec);

/// One compressed slab, as encode_slabs hands it to a sink.
struct EncodedSlab {
  std::size_t slab = 0;  ///< slab index in the field's SlabLayout
  std::vector<std::uint8_t> container;
  /// Codec wall time on the thread that compressed the slab (contention
  /// on an oversubscribed host included).
  Seconds compress_seconds{0.0};
};

/// Takes one compressed slab and may move its container out; a non-OK
/// status stops the walk.
using SlabSink = std::function<Status(EncodedSlab&)>;

/// The one slab encode walk, the write-side twin of decode_slabs. Makes
/// one options.codec instance (an unknown codec fails even for an empty
/// list) and compresses every slab index in `slabs` with
/// compress_checkpoint_slab. Without a pool the slabs compress inline on
/// the caller's thread. With one they compress out of order on the
/// workers and the caller, and each finished slab is parked until every
/// slab before it in `slabs` was handed over; the thread that completes
/// the run takes the hand-off role and feeds the sink while the others
/// keep compressing. A thread that finishes a slab while 4 slabs already
/// wait in order for the sink waits for them to drain, so a slow sink
/// stalls compression rather than buffering the field.
///
/// Either way the sink sees the slabs one at a time, in list order, never
/// concurrently. The first failure (a slab that does not compress, named
/// by its index, or a sink status) stops the walk: nothing after it is
/// handed over and encode_slabs returns that status.
[[nodiscard]] Status encode_slabs(const data::Field& field,
                                  const CheckpointOptions& options,
                                  std::span<const std::size_t> slabs,
                                  const SlabSink& sink,
                                  ThreadPool* pool = nullptr);

/// How recover() reconstructs regions whose slab was lost.
enum class RecoveryFill : std::uint8_t {
  kZero = 0,         ///< lost elements read as 0.0f
  kInterpolate = 1,  ///< linear ramp between the surviving neighbors
};

struct RecoveryPolicy {
  RecoveryFill fill = RecoveryFill::kZero;
  /// When set, any data loss turns the recovery into a typed error
  /// (strict-restart semantics) instead of a degraded field.
  bool fail_on_any_loss = false;
};

/// Verdict for one slab of a recovered checkpoint.
struct SlabVerdict {
  std::uint32_t chunk_seq = 0;  ///< frame chunk carrying this slab
  std::size_t element_offset = 0;
  std::size_t element_count = 0;
  ChunkState frame_state = ChunkState::kMissing;
  Status status;  ///< OK when decoded; else why the slab was lost
  bool recovered = false;
};

/// Outcome of walking a (possibly damaged) checkpoint stream.
struct RecoveryReport {
  data::Field field;  ///< intact slabs decoded, lost regions filled
  std::vector<SlabVerdict> slabs;
  std::size_t total_elements = 0;
  std::size_t lost_elements = 0;
  bool manifest_from_replica = false;
  bool header_from_replica = false;

  [[nodiscard]] std::size_t recovered_slabs() const noexcept;
  [[nodiscard]] double recovered_fraction() const noexcept;
  [[nodiscard]] bool complete() const noexcept { return lost_elements == 0; }
  /// "recovered 14/16 slabs (93.8% of elements)" one-liner.
  [[nodiscard]] std::string summary() const;
};

/// One contiguous element region of a sliced field and whether its slab
/// survived — the minimal shape interpolate_lost_regions needs.
struct SlabRegion {
  std::size_t element_offset = 0;
  std::size_t element_count = 0;
  bool recovered = false;
};

/// Fills each run of lost regions in `out` with a linear ramp anchored on
/// the surviving neighbor elements. Boundary clamp: a run at either end of
/// the field has only one surviving neighbor and is held flat at that
/// nearest neighbor's value (no extrapolation); a field with no surviving
/// regions at all is left untouched (decode_slabs' zeros stand).
/// `regions` must be contiguous, in element order, and cover `out`.
void interpolate_lost_regions(std::span<float> out,
                              std::span<const SlabRegion> regions);

/// What a slab source supplied for one slab. A source that could not
/// supply it sets `frame_state` to kMissing or kCorrupt and says why in
/// `status`; `bytes` then stays empty. `bytes` must stay valid until that
/// slab is decoded: it may view storage the source keeps alive (frame
/// chunks), or `owned`, which travels with the slab (a moved vector keeps
/// its buffer, so the view survives the return from the source).
struct SlabBytes {
  std::uint32_t chunk_seq = 0;  ///< where the slab came from (frame chunk)
  ChunkState frame_state = ChunkState::kIntact;
  Status status;
  std::span<const std::uint8_t> bytes;
  std::vector<std::uint8_t> owned;  ///< fetched bytes `bytes` may view
};

/// Supplies slab `s` of a layout: frame chunks for a checkpoint stream,
/// hash-verified replica fetches for the incremental store. With a pool
/// the source is called concurrently for distinct slabs, each slab once.
using SlabSource = std::function<SlabBytes(std::size_t slab)>;

/// The one slab decode walk, the read-side twin of encode_slabs. Asks
/// `source` for every slab of `layout` and decodes it with
/// decompress_any_into straight into its range of the field (one container
/// parse; a header whose element count is not the slab's is rejected
/// before any codec runs), recording each slab's verdict. The field is
/// allocated for overwrite (Field::for_overwrite) and each slab's range is
/// written once by the thread that walks it: decoded values, or zeros
/// when the slab is lost at frame level or fails to decode partway.
/// Without a pool the slabs decode
/// inline on the caller's thread, in order; with one they decode on the
/// workers and the caller. After every slab is walked (the walk never
/// stops early) it counts lost elements in slab order, applies
/// policy.fail_on_any_loss (the lowest lost slab's status, as a typed
/// error) and the policy fill, so the report is the same bytes either
/// way. Bytes that were supplied but fail to decode keep the source's
/// frame_state.
[[nodiscard]] Expected<RecoveryReport> decode_slabs(
    const SlabLayout& layout, const SlabSource& source,
    const RecoveryPolicy& policy, ThreadPool* pool = nullptr);

/// Graceful-degradation decode of a checkpoint stream. Fails only when
/// the frame layout or both manifest copies are unrecoverable (or when
/// policy.fail_on_any_loss is set and anything was lost); all other
/// damage degrades to per-slab verdicts. Slabs decode on shared_pool().
[[nodiscard]] Expected<RecoveryReport> recover_checkpoint(
    std::span<const std::uint8_t> bytes, const RecoveryPolicy& policy = {});

/// Strict decode: read_framed, the one strict frame walk (every chunk
/// intact and in place, the frame ending exactly at the end of `bytes`,
/// the whole-payload CRC confirmed), then every slab must decode. Slabs
/// decode on shared_pool().
[[nodiscard]] Expected<data::Field> read_checkpoint(
    std::span<const std::uint8_t> bytes);

}  // namespace lcp::compress
