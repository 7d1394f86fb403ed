#include "compress/common/framing.hpp"

#include <algorithm>

#include "support/bytestream.hpp"

namespace lcp::compress {
namespace {

constexpr std::uint32_t kFrameMagic = 0x4650434CU;    // "LCPF"
constexpr std::uint32_t kTrailerMagic = 0x5450434CU;  // "LCPT"
constexpr std::uint32_t kChunkMagic = 0x4B46434CU;    // "LCFK"

/// Bytes between the magic and the header CRC.
constexpr std::size_t kHeaderBodyBytes = 28;

std::uint32_t load_u32(std::span<const std::uint8_t> bytes,
                       std::size_t pos) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

void store_u32(std::uint8_t* out, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Serializes the 28-byte header body shared by header and trailer.
std::vector<std::uint8_t> header_body(const FrameInfo& info) {
  ByteWriter w;
  w.write_u8(info.version);
  w.write_u8(info.flags);
  w.write_u16(0);  // reserved
  w.write_u32(info.chunk_count);
  w.write_u64(0);  // nominal chunk size: none, chunks are variable-length
  w.write_u64(info.payload_bytes);
  w.write_u32(info.payload_crc);
  return w.finish();
}

/// CRC over one chunk's (seq, length, payload) — the chunk integrity unit —
/// from the payload's own CRC, so a walk that also needs the payload CRC
/// (for the whole-payload check) hashes the payload bytes once.
std::uint32_t chunk_crc(std::uint32_t seq, std::uint32_t length,
                        std::uint32_t payload_crc) noexcept {
  std::uint8_t head[8];
  store_u32(head, seq);
  store_u32(head + 4, length);
  return crc32c_combine(crc32c({head, sizeof(head)}), payload_crc, length);
}

/// Parses a header/trailer record at `pos` and validates its CRC.
Expected<FrameInfo> parse_record_at(std::span<const std::uint8_t> bytes,
                                    std::size_t pos, std::uint32_t magic) {
  if (bytes.size() < pos + kFrameHeaderBytes || bytes.size() < pos) {
    return Status::corrupt_data("frame record truncated");
  }
  if (load_u32(bytes, pos) != magic) {
    return Status::corrupt_data("bad frame record magic");
  }
  const auto body = bytes.subspan(pos + 4, kHeaderBodyBytes);
  const std::uint32_t stored_crc = load_u32(bytes, pos + 4 + kHeaderBodyBytes);
  if (crc32c(body) != stored_crc) {
    return Status::corrupt_data("frame record crc mismatch");
  }
  ByteReader r{body};
  FrameInfo info;
  info.version = *r.read_u8();
  info.flags = *r.read_u8();
  (void)*r.read_u16();  // reserved
  info.chunk_count = *r.read_u32();
  const std::uint64_t nominal_chunk_bytes = *r.read_u64();
  info.payload_bytes = *r.read_u64();
  info.payload_crc = *r.read_u32();
  if (info.version != kFrameVersion) {
    return Status::unsupported("unknown frame version");
  }
  if (nominal_chunk_bytes != 0) {
    return Status::unsupported("byte-split frame (nominal chunk size set)");
  }
  return info;
}

/// Sanity limits a CRC-valid header must still satisfy against the actual
/// stream before anything is allocated from its claims. Recovery passes
/// allow_truncated: a cut stream legitimately holds fewer bytes than the
/// header promises, and the per-chunk walk re-checks every length against
/// the real stream anyway.
Status validate_info(const FrameInfo& info, std::span<const std::uint8_t> bytes,
                     bool allow_truncated = false) {
  if (info.chunk_count > kMaxFrameChunks) {
    return Status::corrupt_data("frame chunk count exceeds limit");
  }
  if (!allow_truncated && info.payload_bytes > bytes.size()) {
    return Status::corrupt_data("frame payload larger than stream");
  }
  return Status::ok();
}

/// The one header lookup behind probe_frame and recover_framed: the head
/// record if it parses and passes validate_info, else the trailer replica
/// in the last kFrameTrailerBytes of `bytes`. Fails with the head's error
/// when neither copy is usable. The result's chunks are left empty.
Expected<FrameRecovery> locate_header(std::span<const std::uint8_t> bytes,
                                      bool allow_truncated) {
  FrameRecovery rec;
  auto head = parse_record_at(bytes, 0, kFrameMagic);
  const Status head_status =
      head ? validate_info(*head, bytes, allow_truncated) : head.status();
  if (head_status.is_ok()) {
    rec.info = *head;
    return rec;
  }
  if (bytes.size() >= kFrameTrailerBytes) {
    auto tail = parse_record_at(bytes, bytes.size() - kFrameTrailerBytes,
                                kTrailerMagic);
    if (tail) {
      LCP_RETURN_IF_ERROR(validate_info(*tail, bytes, allow_truncated));
      rec.info = *tail;
      rec.header_from_replica = true;
      return rec;
    }
  }
  return head_status.with_context("frame header and trailer replica");
}

/// True when a CRC-valid trailer record that agrees with `info` starts at
/// `pos`: the end of the frame `info` describes.
bool trailer_at(std::span<const std::uint8_t> bytes, std::size_t pos,
                const FrameInfo& info) {
  auto trailer = parse_record_at(bytes, pos, kTrailerMagic);
  return trailer && *trailer == info;
}

}  // namespace

void FramedWriter::append_chunk(std::span<const std::uint8_t> data) {
  LCP_REQUIRE(chunks_ < kMaxFrameChunks, "frame chunk count exceeds limit");
  LCP_REQUIRE(data.size() <= UINT32_MAX, "frame chunk exceeds u32 length");
  const auto seq = chunks_;
  const auto length = static_cast<std::uint32_t>(data.size());
  std::uint8_t head[kChunkHeaderBytes];
  store_u32(head, kChunkMagic);
  store_u32(head + 4, seq);
  store_u32(head + 8, length);
  const std::uint32_t data_crc = crc32c(data);
  store_u32(head + 12, chunk_crc(seq, length, data_crc));
  body_.insert(body_.end(), head, head + sizeof(head));
  body_.insert(body_.end(), data.begin(), data.end());
  payload_crc_ = crc32c_combine(payload_crc_, data_crc, length);
  payload_ += data.size();
  ++chunks_;
}

std::vector<std::uint8_t> FramedWriter::take_emitted() {
  std::vector<std::uint8_t> out = std::move(body_);
  body_.clear();
  return out;
}

FramedWriter::FrameTail FramedWriter::finish_streaming() {
  FrameInfo info;
  info.version = kFrameVersion;
  info.flags = flags_;
  info.chunk_count = chunks_;
  info.payload_bytes = payload_;
  info.payload_crc = payload_crc_;

  const auto body = header_body(info);
  const std::uint32_t crc = crc32c(body);
  const auto record = [&body, crc](std::uint32_t magic) {
    std::vector<std::uint8_t> r;
    r.reserve(kFrameHeaderBytes);
    const auto put_u32 = [&r](std::uint32_t v) {
      r.push_back(static_cast<std::uint8_t>(v));
      r.push_back(static_cast<std::uint8_t>(v >> 8));
      r.push_back(static_cast<std::uint8_t>(v >> 16));
      r.push_back(static_cast<std::uint8_t>(v >> 24));
    };
    put_u32(magic);
    r.insert(r.end(), body.begin(), body.end());
    put_u32(crc);
    return r;
  };

  FrameTail tail;
  tail.body = std::move(body_);
  body_.clear();
  tail.header = record(kFrameMagic);
  tail.trailer = record(kTrailerMagic);
  return tail;
}

std::vector<std::uint8_t> FramedWriter::finish() {
  FrameTail tail = finish_streaming();
  std::vector<std::uint8_t> out;
  out.reserve(tail.header.size() + tail.body.size() + tail.trailer.size());
  out.insert(out.end(), tail.header.begin(), tail.header.end());
  out.insert(out.end(), tail.body.begin(), tail.body.end());
  out.insert(out.end(), tail.trailer.begin(), tail.trailer.end());
  return out;
}

std::size_t frame_overhead_bytes(std::size_t payload_bytes,
                                 std::size_t chunk_bytes) {
  LCP_REQUIRE(chunk_bytes > 0, "frame chunk size must be positive");
  const std::size_t chunks =
      payload_bytes == 0 ? 0 : (payload_bytes + chunk_bytes - 1) / chunk_bytes;
  return kFrameHeaderBytes + kFrameTrailerBytes + chunks * kChunkHeaderBytes;
}

Expected<FrameInfo> probe_frame(std::span<const std::uint8_t> bytes) {
  auto located = locate_header(bytes, /*allow_truncated=*/false);
  if (!located) {
    return located.status();
  }
  return located->info;
}

Expected<FrameRecovery> read_framed(std::span<const std::uint8_t> bytes) {
  auto header = parse_record_at(bytes, 0, kFrameMagic);
  if (!header) {
    return header.status().with_context("frame header");
  }
  LCP_RETURN_IF_ERROR(validate_info(*header, bytes));
  if (bytes.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    return Status::corrupt_data("framed stream shorter than header+trailer");
  }
  const std::size_t body_end = bytes.size() - kFrameTrailerBytes;
  if (!trailer_at(bytes, body_end, *header)) {
    return Status::corrupt_data(
        "frame trailer damaged or disagrees with header");
  }
  // Every chunk needs at least its header in the body: a count the body
  // cannot hold is rejected before the chunk list is allocated.
  if (header->chunk_count >
      (body_end - kFrameHeaderBytes) / kChunkHeaderBytes) {
    return Status::corrupt_data("frame chunk count exceeds stream");
  }

  FrameRecovery rec;
  rec.info = *header;
  rec.chunks.resize(header->chunk_count);
  std::uint32_t payload_crc = 0;  // crc32c of no bytes
  std::uint64_t payload_bytes = 0;
  std::size_t pos = kFrameHeaderBytes;
  for (std::uint32_t seq = 0; seq < header->chunk_count; ++seq) {
    if (body_end - pos < kChunkHeaderBytes ||
        load_u32(bytes, pos) != kChunkMagic) {
      return Status::corrupt_data("chunk header missing or bad magic")
          .with_context("chunk " + std::to_string(seq));
    }
    const std::uint32_t stored_seq = load_u32(bytes, pos + 4);
    const std::uint32_t length = load_u32(bytes, pos + 8);
    const std::uint32_t stored_crc = load_u32(bytes, pos + 12);
    if (stored_seq != seq) {
      return Status::corrupt_data("chunk out of sequence")
          .with_context("chunk " + std::to_string(seq));
    }
    if (length > body_end - pos - kChunkHeaderBytes) {
      return Status::corrupt_data("chunk length exceeds stream")
          .with_context("chunk " + std::to_string(seq));
    }
    const auto payload = bytes.subspan(pos + kChunkHeaderBytes, length);
    // One pass over the payload serves both checks: the chunk CRC and the
    // whole-payload CRC are both combined from the payload's own CRC.
    const std::uint32_t chunk_payload_crc = crc32c(payload);
    if (chunk_crc(seq, length, chunk_payload_crc) != stored_crc) {
      return Status::corrupt_data("chunk crc mismatch")
          .with_context("chunk " + std::to_string(seq));
    }
    payload_crc = crc32c_combine(payload_crc, chunk_payload_crc, length);
    payload_bytes += length;
    ChunkReport& chunk = rec.chunks[seq];
    chunk.seq = seq;
    chunk.state = ChunkState::kIntact;
    chunk.payload = payload;
    pos += kChunkHeaderBytes + length;
  }
  if (pos != body_end) {
    return Status::corrupt_data("trailing garbage between chunks and trailer");
  }
  if (payload_bytes != header->payload_bytes) {
    return Status::corrupt_data("frame payload size mismatch");
  }
  if (payload_crc != header->payload_crc) {
    return Status::corrupt_data("frame payload crc mismatch");
  }
  return rec;
}

std::string_view chunk_state_name(ChunkState state) noexcept {
  switch (state) {
    case ChunkState::kIntact:
      return "intact";
    case ChunkState::kCorrupt:
      return "corrupt";
    case ChunkState::kMissing:
      return "missing";
  }
  return "?";
}

std::size_t FrameRecovery::intact_chunks() const noexcept {
  std::size_t n = 0;
  for (const auto& c : chunks) {
    n += c.state == ChunkState::kIntact ? 1 : 0;
  }
  return n;
}

std::uint64_t FrameRecovery::bytes_recovered() const noexcept {
  std::uint64_t n = 0;
  for (const auto& c : chunks) {
    if (c.state == ChunkState::kIntact) {
      n += c.payload.size();
    }
  }
  return n;
}

double FrameRecovery::chunk_recovered_fraction() const noexcept {
  if (chunks.empty()) {
    return 1.0;
  }
  return static_cast<double>(intact_chunks()) /
         static_cast<double>(chunks.size());
}

bool FrameRecovery::complete() const noexcept {
  return intact_chunks() == chunks.size();
}

Expected<FrameRecovery> recover_framed(std::span<const std::uint8_t> bytes) {
  auto located = locate_header(bytes, /*allow_truncated=*/true);
  if (!located) {
    return located.status().with_context("recover_framed");
  }
  FrameRecovery rec = std::move(*located);
  rec.chunks.resize(rec.info.chunk_count);
  for (std::uint32_t i = 0; i < rec.info.chunk_count; ++i) {
    rec.chunks[i].seq = i;
    rec.chunks[i].state = ChunkState::kMissing;
    rec.chunks[i].status =
        Status::corrupt_data("chunk never located in damaged stream");
  }

  // Walk the body, resynchronizing on chunk magics. A candidate chunk is
  // accepted only when its CRC verifies, which makes false resyncs on
  // magic-shaped payload bytes vanishingly unlikely; on any mismatch the
  // scan advances one byte (the candidate's own length field cannot be
  // trusted). The walk ends at this frame's trailer: bytes past it belong
  // to an older, longer file the frame was written over, whose CRC-valid
  // chunks must not stand in for this frame's damaged ones.
  std::size_t pos = std::min<std::size_t>(kFrameHeaderBytes, bytes.size());
  while (bytes.size() - pos >= kChunkHeaderBytes) {
    const std::uint32_t magic = load_u32(bytes, pos);
    if (magic == kTrailerMagic && trailer_at(bytes, pos, rec.info)) {
      break;
    }
    if (magic != kChunkMagic) {
      ++pos;
      continue;
    }
    const std::uint32_t seq = load_u32(bytes, pos + 4);
    const std::uint32_t length = load_u32(bytes, pos + 8);
    const std::uint32_t stored_crc = load_u32(bytes, pos + 12);
    const bool plausible = seq < rec.info.chunk_count &&
                           length <= bytes.size() - pos - kChunkHeaderBytes;
    if (!plausible) {
      ++pos;
      continue;
    }
    const auto payload = bytes.subspan(pos + kChunkHeaderBytes, length);
    if (chunk_crc(seq, length, crc32c(payload)) != stored_crc) {
      if (rec.chunks[seq].state == ChunkState::kMissing) {
        rec.chunks[seq].state = ChunkState::kCorrupt;
        rec.chunks[seq].status =
            Status::corrupt_data("chunk crc mismatch")
                .with_context("chunk " + std::to_string(seq));
      }
      ++pos;
      continue;
    }
    if (rec.chunks[seq].state != ChunkState::kIntact) {
      rec.chunks[seq].state = ChunkState::kIntact;
      rec.chunks[seq].payload = payload;
      rec.chunks[seq].status = Status::ok();
    }
    pos += kChunkHeaderBytes + length;
  }
  return rec;
}

}  // namespace lcp::compress
