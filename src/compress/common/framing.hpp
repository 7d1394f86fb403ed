#pragma once
// Resilient chunked frame format for checkpoint containers. A monolithic
// compressed dump dies wholesale on one flipped bit; a framed dump splits
// the payload into CRC32C-protected chunks so corruption is detected and
// contained, and a damaged stream can still surrender its intact chunks.
//
// Layout (all integers little-endian):
//
//   FramedStream := FrameHeader Chunk* FrameTrailer
//   FrameHeader  := magic "LCPF" | version u8 | flags u8 | reserved u16 |
//                   chunk_count u32 | nominal chunk size u64 (always 0) |
//                   payload_bytes u64 | payload_crc u32 | header_crc u32
//   Chunk        := magic "LCFK" | seq u32 | length u32 | crc u32 |
//                   bytes[length]
//   FrameTrailer := magic "LCPT" | <same body and header_crc as FrameHeader>
//
// There is one frame mode: the writer emits each chunk explicitly, so
// chunks have variable lengths. The nominal chunk size field is a relic of
// a byte-split mode this format no longer has; writers put 0 there and
// every reader rejects a non-zero value with a typed error.
//
// Each chunk's CRC32C covers its seq and length fields as well as its
// payload, so header tampering trips the same check as payload corruption.
// The trailer is a redundant replica of the header: a reader whose head
// bytes are damaged can still learn the chunk layout from the tail.
//
// Two read paths, both returning a FrameRecovery whose chunk spans borrow
// from the input bytes:
//   read_framed     — the one strict walk: header at offset 0, every chunk
//                     in order with a verified CRC, the trailer right after
//                     the last chunk, ending the stream and agreeing with
//                     the header, and the whole-payload CRC; any violation
//                     is a typed error.
//   recover_framed  — graceful degradation: walks a damaged or truncated
//                     stream, resynchronizes on chunk magics, and stops at
//                     the first CRC-valid trailer that agrees with the
//                     header, so the tail of an older, longer file the
//                     frame was written over is never read. Returns every
//                     chunk whose CRC still verifies, plus a per-chunk
//                     damage report.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "support/checksum.hpp"
#include "support/status.hpp"

namespace lcp::compress {

inline constexpr std::size_t kFrameHeaderBytes = 36;
inline constexpr std::size_t kFrameTrailerBytes = 36;
inline constexpr std::size_t kChunkHeaderBytes = 16;
inline constexpr std::uint8_t kFrameVersion = 1;

/// flags bit 0: chunk payloads are self-contained codec containers
/// (checkpoint mode, see checkpoint.hpp) rather than an arbitrary byte
/// stream split at nominal chunk boundaries.
inline constexpr std::uint8_t kFrameFlagCheckpoint = 0x01;
/// flags bit 1: chunk payloads are manifest-journal entries, one framed
/// generation record per chunk (core/incremental_checkpoint.hpp). The
/// per-chunk CRC makes a tampered generation fail closed while the rest
/// of the journal stays readable, and the trailer replica protects the
/// entry layout exactly as it does for checkpoints.
inline constexpr std::uint8_t kFrameFlagJournal = 0x02;

/// Upper bound on chunk_count accepted from a (possibly hostile) header,
/// checked before any allocation. 2^20 chunks of 1 MiB covers a 1 TB dump.
inline constexpr std::uint32_t kMaxFrameChunks = 1u << 20;

/// Parsed frame header (or trailer replica) fields.
struct FrameInfo {
  std::uint8_t version = kFrameVersion;
  std::uint8_t flags = 0;
  std::uint32_t chunk_count = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;

  friend bool operator==(const FrameInfo&, const FrameInfo&) = default;
};

/// Streaming frame builder: each append_chunk() emits one chunk. `flags`
/// (kFrameFlag*) go into the header and trailer.
class FramedWriter {
 public:
  explicit FramedWriter(std::uint8_t flags = 0) : flags_(flags) {}

  /// Emits `data` as one chunk.
  void append_chunk(std::span<const std::uint8_t> data);

  /// Reserves room for `bytes` more bytes past the chunks emitted so far:
  /// chunks that fit never reallocate.
  void reserve(std::size_t bytes) { body_.reserve(body_.size() + bytes); }

  /// Writes header and trailer around the chunks and returns the framed
  /// stream. The writer is spent afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  // --- Producer API (streaming writers) ---------------------------------
  //
  // A streaming writer ships frame bytes while later payload is still
  // being produced: it drains whole emitted chunks with take_emitted(),
  // writes them at the running wire offset (the first chunk lands at
  // offset kFrameHeaderBytes), and at the end back-patches the header —
  // whose chunk count and payload CRC are only known then — at offset 0.
  // header + drained bodies + tail.body + trailer concatenate to exactly
  // the bytes finish() would have produced (asserted in framing tests).

  /// Moves out the chunk bytes emitted since the last drain.
  [[nodiscard]] std::vector<std::uint8_t> take_emitted();

  /// Terminal records of a streamed frame.
  struct FrameTail {
    std::vector<std::uint8_t> body;     ///< chunks not yet drained
    std::vector<std::uint8_t> header;   ///< kFrameHeaderBytes record
    std::vector<std::uint8_t> trailer;  ///< kFrameTrailerBytes replica
  };

  /// Seals the frame. The writer is spent afterwards; the caller owns
  /// placing the three parts on the wire.
  [[nodiscard]] FrameTail finish_streaming();

  [[nodiscard]] std::uint32_t chunks_emitted() const noexcept {
    return chunks_;
  }
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    return payload_;
  }

 private:
  std::uint8_t flags_;
  std::vector<std::uint8_t> body_;
  std::uint32_t chunks_ = 0;
  std::uint64_t payload_ = 0;
  std::uint32_t payload_crc_ = 0;  ///< crc32c of the payload so far
};

/// Bytes the frame adds on top of `payload_bytes` cut into chunks of
/// `chunk_bytes` (header + trailer + per-chunk headers). This is the
/// wire/storage cost the tuning layer prices into the energy model.
[[nodiscard]] std::size_t frame_overhead_bytes(std::size_t payload_bytes,
                                               std::size_t chunk_bytes);

/// Parses the frame header; falls back to the trailer replica when the
/// head is damaged. Fails only when neither copy is readable.
[[nodiscard]] Expected<FrameInfo> probe_frame(
    std::span<const std::uint8_t> bytes);

enum class ChunkState : std::uint8_t {
  kIntact = 0,   ///< located and CRC verified
  kCorrupt = 1,  ///< located but failed its CRC
  kMissing = 2,  ///< never located (lost to truncation/splice/overwrite)
};

[[nodiscard]] std::string_view chunk_state_name(ChunkState state) noexcept;

/// Verdict for one expected chunk of a damaged stream.
struct ChunkReport {
  std::uint32_t seq = 0;
  ChunkState state = ChunkState::kMissing;
  /// Borrows from the recovered stream's bytes; empty unless intact.
  std::span<const std::uint8_t> payload;
  Status status;  ///< why the chunk is not intact (OK when intact)
};

/// Result of walking a damaged frame stream. `chunks` always has
/// info.chunk_count entries, one per expected chunk.
struct FrameRecovery {
  FrameInfo info;
  bool header_from_replica = false;
  std::vector<ChunkReport> chunks;

  [[nodiscard]] std::size_t intact_chunks() const noexcept;
  [[nodiscard]] std::uint64_t bytes_recovered() const noexcept;
  /// Fraction of expected chunks recovered intact (1.0 when empty).
  [[nodiscard]] double chunk_recovered_fraction() const noexcept;
  [[nodiscard]] bool complete() const noexcept;
};

/// The one strict walk: header valid at offset 0, every chunk in sequence
/// with a verified CRC, the trailer replica right after the last chunk,
/// ending `bytes` and identical to the header, and the chunks' total
/// length and whole-payload CRC matching the header. Bytes past the frame
/// (the tail of a longer file it was written over) fail it. Every chunk of
/// the result is intact; its payload spans borrow from `bytes`.
[[nodiscard]] Expected<FrameRecovery> read_framed(
    std::span<const std::uint8_t> bytes);

/// Graceful-degradation decode. Fails only when neither header copy is
/// readable (the chunk layout is unknowable); any other damage degrades
/// to per-chunk verdicts. The walk ends at the first CRC-valid trailer
/// that agrees with the header, or at the end of `bytes` if there is none.
/// The returned payload spans borrow from `bytes`.
[[nodiscard]] Expected<FrameRecovery> recover_framed(
    std::span<const std::uint8_t> bytes);

}  // namespace lcp::compress
