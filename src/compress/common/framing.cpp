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
  w.write_u64(info.chunk_bytes);
  w.write_u64(info.payload_bytes);
  w.write_u32(info.payload_crc);
  return w.finish();
}

/// CRC over one chunk's (seq, length, payload) — the chunk integrity unit.
std::uint32_t chunk_crc(std::uint32_t seq, std::uint32_t length,
                        std::span<const std::uint8_t> payload) noexcept {
  std::uint8_t head[8];
  store_u32(head, seq);
  store_u32(head + 4, length);
  std::uint32_t state = crc32c_update(kCrc32cInit, {head, sizeof(head)});
  state = crc32c_update(state, payload);
  return crc32c_finish(state);
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
  info.chunk_bytes = *r.read_u64();
  info.payload_bytes = *r.read_u64();
  info.payload_crc = *r.read_u32();
  if (info.version != kFrameVersion) {
    return Status::unsupported("unknown frame version");
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
  if (info.chunk_bytes > 0) {
    const std::uint64_t expected =
        info.payload_bytes == 0
            ? 0
            : (info.payload_bytes + info.chunk_bytes - 1) / info.chunk_bytes;
    if (expected != info.chunk_count) {
      return Status::corrupt_data("frame chunk count inconsistent with sizes");
    }
  }
  return Status::ok();
}

/// The strict readers' end-of-frame rule: the trailer replica occupies the
/// last kFrameTrailerBytes of `bytes` and agrees with `header` field for
/// field.
Status check_trailer(std::span<const std::uint8_t> bytes,
                     const FrameInfo& header) {
  if (bytes.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    return Status::corrupt_data("framed stream shorter than header+trailer");
  }
  auto trailer = parse_record_at(bytes, bytes.size() - kFrameTrailerBytes,
                                 kTrailerMagic);
  if (!trailer) {
    return trailer.status().with_context("frame trailer");
  }
  if (header.version != trailer->version || header.flags != trailer->flags ||
      header.chunk_count != trailer->chunk_count ||
      header.chunk_bytes != trailer->chunk_bytes ||
      header.payload_bytes != trailer->payload_bytes ||
      header.payload_crc != trailer->payload_crc) {
    return Status::corrupt_data("frame trailer disagrees with header");
  }
  return Status::ok();
}

}  // namespace

FramedWriter::FramedWriter(FrameParams params) : params_(params) {
  LCP_REQUIRE(params_.chunk_bytes > 0, "frame chunk size must be positive");
}

void FramedWriter::append(std::span<const std::uint8_t> data) {
  LCP_REQUIRE(mode_ != Mode::kChunks,
              "FramedWriter: append after append_chunk");
  mode_ = Mode::kBytes;
  pending_.insert(pending_.end(), data.begin(), data.end());
  while (pending_.size() >= params_.chunk_bytes) {
    emit_chunk({pending_.data(), params_.chunk_bytes});
    pending_.erase(pending_.begin(),
                   pending_.begin() +
                       static_cast<std::ptrdiff_t>(params_.chunk_bytes));
  }
}

void FramedWriter::append_chunk(std::span<const std::uint8_t> data) {
  LCP_REQUIRE(mode_ != Mode::kBytes,
              "FramedWriter: append_chunk after append");
  mode_ = Mode::kChunks;
  emit_chunk(data);
}

void FramedWriter::emit_chunk(std::span<const std::uint8_t> data) {
  LCP_REQUIRE(chunks_ < kMaxFrameChunks, "frame chunk count exceeds limit");
  LCP_REQUIRE(data.size() <= UINT32_MAX, "frame chunk exceeds u32 length");
  const auto seq = chunks_;
  const auto length = static_cast<std::uint32_t>(data.size());
  std::uint8_t head[kChunkHeaderBytes];
  store_u32(head, kChunkMagic);
  store_u32(head + 4, seq);
  store_u32(head + 8, length);
  store_u32(head + 12, chunk_crc(seq, length, data));
  body_.insert(body_.end(), head, head + sizeof(head));
  body_.insert(body_.end(), data.begin(), data.end());
  payload_crc_state_ = crc32c_update(payload_crc_state_, data);
  payload_ += data.size();
  ++chunks_;
}

std::vector<std::uint8_t> FramedWriter::take_emitted() {
  std::vector<std::uint8_t> out = std::move(body_);
  body_.clear();
  return out;
}

FramedWriter::FrameTail FramedWriter::finish_streaming() {
  if (!pending_.empty()) {
    emit_chunk(pending_);
    pending_.clear();
  }
  FrameInfo info;
  info.version = kFrameVersion;
  info.flags = params_.flags;
  info.chunk_count = chunks_;
  info.chunk_bytes = mode_ == Mode::kChunks ? 0 : params_.chunk_bytes;
  info.payload_bytes = payload_;
  info.payload_crc = crc32c_finish(payload_crc_state_);

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

std::vector<std::uint8_t> frame_payload(std::span<const std::uint8_t> payload,
                                        const FrameParams& params) {
  FramedWriter writer{params};
  writer.append(payload);
  return writer.finish();
}

std::size_t frame_overhead_bytes(std::size_t payload_bytes,
                                 std::size_t chunk_bytes) {
  LCP_REQUIRE(chunk_bytes > 0, "frame chunk size must be positive");
  const std::size_t chunks =
      payload_bytes == 0 ? 0 : (payload_bytes + chunk_bytes - 1) / chunk_bytes;
  return kFrameHeaderBytes + kFrameTrailerBytes + chunks * kChunkHeaderBytes;
}

Expected<FrameInfo> probe_frame(std::span<const std::uint8_t> bytes) {
  auto front = parse_record_at(bytes, 0, kFrameMagic);
  if (front) {
    LCP_RETURN_IF_ERROR(validate_info(*front, bytes));
    return front;
  }
  if (bytes.size() >= kFrameTrailerBytes) {
    auto tail = parse_record_at(bytes, bytes.size() - kFrameTrailerBytes,
                                kTrailerMagic);
    if (tail) {
      LCP_RETURN_IF_ERROR(validate_info(*tail, bytes));
      return tail;
    }
  }
  return front.status().with_context("frame header and trailer replica");
}

Expected<std::vector<std::uint8_t>> read_framed(
    std::span<const std::uint8_t> bytes) {
  auto header = parse_record_at(bytes, 0, kFrameMagic);
  if (!header) {
    return header.status().with_context("frame header");
  }
  LCP_RETURN_IF_ERROR(validate_info(*header, bytes));
  LCP_RETURN_IF_ERROR(check_trailer(bytes, *header));

  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(header->payload_bytes));
  std::size_t pos = kFrameHeaderBytes;
  const std::size_t body_end = bytes.size() - kFrameTrailerBytes;
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
    if (chunk_crc(seq, length, payload) != stored_crc) {
      return Status::corrupt_data("chunk crc mismatch")
          .with_context("chunk " + std::to_string(seq));
    }
    out.insert(out.end(), payload.begin(), payload.end());
    pos += kChunkHeaderBytes + length;
  }
  if (pos != body_end) {
    return Status::corrupt_data("trailing garbage between chunks and trailer");
  }
  if (out.size() != header->payload_bytes) {
    return Status::corrupt_data("frame payload size mismatch");
  }
  if (crc32c(out) != header->payload_crc) {
    return Status::corrupt_data("frame payload crc mismatch");
  }
  return out;
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

std::vector<std::uint8_t> FrameRecovery::assemble_zero_filled() const {
  if (info.chunk_bytes == 0) {
    return {};  // variable-length chunks have no byte offsets
  }
  std::vector<std::uint8_t> out(
      static_cast<std::size_t>(info.payload_bytes), 0);
  for (const auto& c : chunks) {
    if (c.state != ChunkState::kIntact) {
      continue;
    }
    const std::uint64_t offset =
        static_cast<std::uint64_t>(c.seq) * info.chunk_bytes;
    if (offset > out.size() || c.payload.size() > out.size() - offset) {
      continue;  // length validation should make this unreachable
    }
    std::copy(c.payload.begin(), c.payload.end(),
              out.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  return out;
}

Status check_frame_layout(std::span<const std::uint8_t> bytes,
                          const FrameRecovery& rec) {
  LCP_RETURN_IF_ERROR(check_trailer(bytes, rec.info));
  std::size_t pos = kFrameHeaderBytes;
  for (const ChunkReport& c : rec.chunks) {
    if (static_cast<std::size_t>(c.payload.data() - bytes.data()) !=
        pos + kChunkHeaderBytes) {
      return Status::corrupt_data("chunk out of place")
          .with_context("chunk " + std::to_string(c.seq));
    }
    pos += kChunkHeaderBytes + c.payload.size();
  }
  if (pos != bytes.size() - kFrameTrailerBytes) {
    return Status::corrupt_data("trailing garbage between chunks and trailer");
  }
  return Status::ok();
}

Expected<FrameRecovery> recover_framed(std::span<const std::uint8_t> bytes) {
  FrameRecovery rec;
  auto front = parse_record_at(bytes, 0, kFrameMagic);
  if (front && validate_info(*front, bytes, /*allow_truncated=*/true).is_ok()) {
    rec.info = *front;
  } else {
    // Head is damaged: fall back to the trailer replica. Without either
    // copy the chunk layout is unknowable and recovery cannot start.
    Expected<FrameInfo> tail =
        Status::corrupt_data("stream shorter than a trailer");
    if (bytes.size() >= kFrameTrailerBytes) {
      tail = parse_record_at(bytes, bytes.size() - kFrameTrailerBytes,
                             kTrailerMagic);
    }
    if (!tail) {
      return Status::corrupt_data(
                 "frame header and trailer replica both unreadable")
          .with_context("recover_framed");
    }
    LCP_RETURN_IF_ERROR(validate_info(*tail, bytes, /*allow_truncated=*/true));
    rec.info = *tail;
    rec.header_from_replica = true;
  }

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
  // trusted).
  std::size_t pos = std::min<std::size_t>(kFrameHeaderBytes, bytes.size());
  while (bytes.size() - pos >= kChunkHeaderBytes) {
    if (load_u32(bytes, pos) != kChunkMagic) {
      ++pos;
      continue;
    }
    const std::uint32_t seq = load_u32(bytes, pos + 4);
    const std::uint32_t length = load_u32(bytes, pos + 8);
    const std::uint32_t stored_crc = load_u32(bytes, pos + 12);
    const bool plausible =
        seq < rec.info.chunk_count &&
        length <= bytes.size() - pos - kChunkHeaderBytes &&
        (rec.info.chunk_bytes == 0 || length <= rec.info.chunk_bytes);
    if (!plausible) {
      ++pos;
      continue;
    }
    const auto payload = bytes.subspan(pos + kChunkHeaderBytes, length);
    if (chunk_crc(seq, length, payload) != stored_crc) {
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

  // Byte-mode length validation: an intact-CRC chunk whose length does
  // not match its slot (a spliced chunk from another stream) is demoted.
  if (rec.info.chunk_bytes > 0) {
    for (auto& c : rec.chunks) {
      if (c.state != ChunkState::kIntact) {
        continue;
      }
      const std::uint64_t offset =
          static_cast<std::uint64_t>(c.seq) * rec.info.chunk_bytes;
      const std::uint64_t expected =
          std::min<std::uint64_t>(rec.info.chunk_bytes,
                                  rec.info.payload_bytes - offset);
      if (c.payload.size() != expected) {
        c.state = ChunkState::kCorrupt;
        c.payload = {};
        c.status = Status::corrupt_data("chunk length inconsistent with slot")
                       .with_context("chunk " + std::to_string(c.seq));
      }
    }
  }
  return rec;
}

}  // namespace lcp::compress
