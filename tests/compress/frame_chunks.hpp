#pragma once
// Test helpers over the one frame mode: frame a byte string cut into
// fixed-size chunks, and join a walked frame's chunk payloads back up.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/common/framing.hpp"

namespace lcp::compress {

/// `payload` framed as consecutive chunks of `chunk_bytes` (the last one
/// may be short; an empty payload gives a frame with no chunks).
inline std::vector<std::uint8_t> frame_in_chunks(
    std::span<const std::uint8_t> payload, std::size_t chunk_bytes,
    std::uint8_t flags = 0) {
  FramedWriter writer{flags};
  for (std::size_t at = 0; at < payload.size(); at += chunk_bytes) {
    writer.append_chunk(
        payload.subspan(at, std::min(chunk_bytes, payload.size() - at)));
  }
  return writer.finish();
}

/// The payloads of `rec`'s intact chunks, concatenated in order.
inline std::vector<std::uint8_t> joined_payload(const FrameRecovery& rec) {
  std::vector<std::uint8_t> out;
  for (const ChunkReport& c : rec.chunks) {
    if (c.state == ChunkState::kIntact) {
      out.insert(out.end(), c.payload.begin(), c.payload.end());
    }
  }
  return out;
}

}  // namespace lcp::compress
