// Resilient frame format: strict round trips, every single-byte flip
// detected, graceful recovery of the intact chunks from damaged streams,
// and the header/trailer replica machinery.

#include <gtest/gtest.h>

#include <numeric>

#include "compress/common/framing.hpp"
#include "frame_chunks.hpp"
#include "support/checksum.hpp"
#include "support/rng.hpp"

namespace lcp::compress {
namespace {

std::vector<std::uint8_t> test_payload(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint8_t> payload(n);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return payload;
}

/// Offset of chunk `seq`'s header in a frame of equal `chunk_bytes` chunks.
std::size_t chunk_at(std::size_t seq, std::size_t chunk_bytes) {
  return kFrameHeaderBytes + seq * (kChunkHeaderBytes + chunk_bytes);
}

/// Recomputes the CRC of the header or trailer record at `pos` after a
/// test edited its body, so the edit reaches the readers' field checks.
void reseal_record(std::vector<std::uint8_t>& framed, std::size_t pos) {
  constexpr std::size_t kBody = kFrameHeaderBytes - 8;  // magic .. crc
  const std::uint32_t crc =
      crc32c(std::span<const std::uint8_t>{framed}.subspan(pos + 4, kBody));
  for (std::size_t i = 0; i < 4; ++i) {
    framed[pos + 4 + kBody + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// Writes `v` little-endian at `pos` of the header and of the trailer and
/// reseals both records.
void forge_u64_field(std::vector<std::uint8_t>& framed, std::size_t pos,
                     std::uint64_t v) {
  for (const std::size_t record : {std::size_t{0},
                                   framed.size() - kFrameTrailerBytes}) {
    for (std::size_t i = 0; i < 8; ++i) {
      framed[record + pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    reseal_record(framed, record);
  }
}

TEST(FramingTest, EmptyPayloadRoundTrip) {
  const auto framed = FramedWriter{}.finish();
  EXPECT_EQ(framed.size(), kFrameHeaderBytes + kFrameTrailerBytes);
  auto back = read_framed(framed);
  ASSERT_TRUE(back.has_value()) << back.status().to_string();
  EXPECT_TRUE(back->chunks.empty());
  EXPECT_EQ(back->info.payload_bytes, 0u);
}

TEST(FramingTest, PayloadSmallerThanOneChunk) {
  const auto payload = test_payload(17, 2);
  const auto framed = frame_in_chunks(payload, 4096);
  auto back = read_framed(framed);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->chunks.size(), 1u);
  EXPECT_EQ(joined_payload(*back), payload);
}

TEST(FramingTest, ChunkModeRoundTrip) {
  FramedWriter writer;
  const auto a = test_payload(100, 3);
  const auto b = test_payload(5000, 4);
  const auto c = test_payload(1, 5);
  writer.append_chunk(a);
  writer.append_chunk(b);
  writer.append_chunk(c);
  EXPECT_EQ(writer.chunks_emitted(), 3u);
  const auto framed = writer.finish();

  auto info = probe_frame(framed);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->chunk_count, 3u);
  EXPECT_EQ(info->payload_bytes, a.size() + b.size() + c.size());

  auto back = read_framed(framed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->info, *info);
  EXPECT_FALSE(back->header_from_replica);
  ASSERT_EQ(back->chunks.size(), 3u);
  EXPECT_TRUE(back->complete());
  // The strict walk borrows every chunk from the input; nothing is copied.
  const std::vector<std::uint8_t>* parts[] = {&a, &b, &c};
  std::size_t pos = kFrameHeaderBytes;
  for (std::size_t i = 0; i < 3; ++i) {
    const ChunkReport& chunk = back->chunks[i];
    EXPECT_EQ(chunk.seq, i);
    EXPECT_TRUE(chunk.status.is_ok());
    EXPECT_EQ(chunk.payload.data(), framed.data() + pos + kChunkHeaderBytes);
    EXPECT_TRUE(std::equal(chunk.payload.begin(), chunk.payload.end(),
                           parts[i]->begin(), parts[i]->end()));
    pos += kChunkHeaderBytes + parts[i]->size();
  }
}

TEST(FramingTest, StreamedFrameEqualsFinish) {
  // header + drained bodies + tail body + trailer == finish().
  const auto a = test_payload(300, 20);
  const auto b = test_payload(70, 21);
  FramedWriter whole{kFrameFlagCheckpoint};
  FramedWriter streamed{kFrameFlagCheckpoint};
  whole.append_chunk(a);
  whole.append_chunk(b);
  streamed.append_chunk(a);
  std::vector<std::uint8_t> body = streamed.take_emitted();
  streamed.append_chunk(b);
  auto tail = streamed.finish_streaming();
  std::vector<std::uint8_t> wire = tail.header;
  wire.insert(wire.end(), body.begin(), body.end());
  wire.insert(wire.end(), tail.body.begin(), tail.body.end());
  wire.insert(wire.end(), tail.trailer.begin(), tail.trailer.end());
  EXPECT_EQ(wire, whole.finish());
}

TEST(FramingTest, EverySingleByteFlipFailsStrictRead) {
  const auto payload = test_payload(600, 6);
  const auto framed = frame_in_chunks(payload, 128);
  for (std::size_t i = 0; i < framed.size(); ++i) {
    auto mutated = framed;
    mutated[i] ^= 0x01;  // single bit: CRC32C guarantees detection
    const auto decoded = read_framed(mutated);
    EXPECT_FALSE(decoded.has_value()) << "flip at byte " << i << " undetected";
  }
}

TEST(FramingTest, EveryTruncationFailsStrictRead) {
  const auto payload = test_payload(600, 7);
  const auto framed = frame_in_chunks(payload, 128);
  for (std::size_t len = 0; len < framed.size(); ++len) {
    const auto decoded = read_framed(
        std::span<const std::uint8_t>{framed.data(), len});
    EXPECT_FALSE(decoded.has_value()) << "truncation to " << len << " decoded";
  }
}

TEST(FramingTest, RecoveryReturnsOtherChunksBitForBit) {
  const auto payload = test_payload(8 * 512, 8);
  const auto framed = frame_in_chunks(payload, 512);

  // Corrupt one byte inside chunk 3's payload.
  auto damaged = framed;
  damaged[chunk_at(3, 512) + kChunkHeaderBytes + 7] ^= 0xFF;

  auto rec = recover_framed(damaged);
  ASSERT_TRUE(rec.has_value()) << rec.status().to_string();
  ASSERT_EQ(rec->chunks.size(), 8u);
  EXPECT_EQ(rec->intact_chunks(), 7u);
  EXPECT_FALSE(rec->complete());
  EXPECT_EQ(rec->chunks[3].state, ChunkState::kCorrupt);
  EXPECT_FALSE(rec->chunks[3].status.is_ok());
  EXPECT_TRUE(rec->chunks[3].payload.empty());

  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i == 3) {
      continue;
    }
    ASSERT_EQ(rec->chunks[i].state, ChunkState::kIntact) << i;
    const auto expected =
        std::span<const std::uint8_t>{payload}.subspan(i * 512, 512);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           rec->chunks[i].payload.begin(),
                           rec->chunks[i].payload.end()))
        << "chunk " << i;
  }
}

TEST(FramingTest, TruncatedTailRecoversHeadChunks) {
  const auto payload = test_payload(6 * 256, 9);
  const auto framed = frame_in_chunks(payload, 256);
  // Cut mid-way through chunk 4 (losing chunks 4, 5 and the trailer).
  const std::size_t cut = chunk_at(4, 256) + 100;
  auto rec = recover_framed(std::span<const std::uint8_t>{framed.data(), cut});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->intact_chunks(), 4u);
  EXPECT_EQ(rec->chunks[4].state, ChunkState::kMissing);
  EXPECT_EQ(rec->chunks[5].state, ChunkState::kMissing);
  EXPECT_EQ(rec->bytes_recovered(), 4u * 256u);
}

TEST(FramingTest, DamagedHeaderFallsBackToTrailerReplica) {
  const auto payload = test_payload(4 * 300, 10);
  auto framed = frame_in_chunks(payload, 300);
  framed[1] ^= 0xFF;  // magic byte: front header unreadable

  EXPECT_FALSE(read_framed(framed).has_value());

  auto info = probe_frame(framed);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->chunk_count, 4u);

  auto rec = recover_framed(framed);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->header_from_replica);
  EXPECT_EQ(rec->intact_chunks(), 4u);
  EXPECT_EQ(joined_payload(*rec), payload);
}

TEST(FramingTest, BothHeaderCopiesLostIsTypedError) {
  const auto payload = test_payload(1000, 11);
  auto framed = frame_in_chunks(payload, 250);
  framed[0] ^= 0xFF;
  framed[framed.size() - kFrameTrailerBytes] ^= 0xFF;
  auto rec = recover_framed(framed);
  EXPECT_FALSE(rec.has_value());
  EXPECT_EQ(rec.status().code(), ErrorCode::kCorruptData);
  auto info = probe_frame(framed);
  EXPECT_FALSE(info.has_value());
  EXPECT_EQ(info.status().code(), ErrorCode::kCorruptData);
}

TEST(FramingTest, NonZeroNominalChunkSizeIsTypedError) {
  // The header's nominal chunk size (offset 12) stays on the wire as 0. A
  // CRC-valid header and trailer that set it describe a byte-split frame,
  // which no reader accepts.
  auto framed = frame_in_chunks(test_payload(1000, 17), 250);
  ASSERT_TRUE(read_framed(framed).has_value());
  forge_u64_field(framed, 12, 250);

  auto info = probe_frame(framed);
  ASSERT_FALSE(info.has_value());
  EXPECT_EQ(info.status().code(), ErrorCode::kUnsupported);
  auto strict = read_framed(framed);
  ASSERT_FALSE(strict.has_value());
  EXPECT_EQ(strict.status().code(), ErrorCode::kUnsupported);
  auto rec = recover_framed(framed);
  ASSERT_FALSE(rec.has_value());
  EXPECT_EQ(rec.status().code(), ErrorCode::kUnsupported);
}

TEST(FramingTest, ResynchronizesAcrossSplicedGarbage) {
  // Build the frame, then splice garbage over chunk 1's header so the
  // walk loses lockstep and must resync on chunk 2's magic.
  const auto payload = test_payload(4 * 200, 12);
  auto framed = frame_in_chunks(payload, 200);
  const std::size_t chunk1 = chunk_at(1, 200);
  Rng rng{13};
  for (std::size_t i = 0; i < kChunkHeaderBytes; ++i) {
    framed[chunk1 + i] = static_cast<std::uint8_t>(rng.next_u64());
  }
  auto rec = recover_framed(framed);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->chunks[0].state, ChunkState::kIntact);
  EXPECT_NE(rec->chunks[1].state, ChunkState::kIntact);
  EXPECT_EQ(rec->chunks[2].state, ChunkState::kIntact);
  EXPECT_EQ(rec->chunks[3].state, ChunkState::kIntact);
}

TEST(FramingTest, ChunkHeaderTamperingIsDetected) {
  // Rewriting a chunk's seq to hijack another slot must fail its CRC
  // (the CRC covers seq and length, not just the payload).
  const auto payload = test_payload(3 * 400, 14);
  auto framed = frame_in_chunks(payload, 400);
  framed[chunk_at(2, 400) + 4] = 0;  // seq 2 -> 0
  auto rec = recover_framed(framed);
  ASSERT_TRUE(rec.has_value());
  // Slot 0 keeps its own genuine chunk; slot 2 must not be intact.
  EXPECT_EQ(rec->chunks[0].state, ChunkState::kIntact);
  EXPECT_NE(rec->chunks[2].state, ChunkState::kIntact);
  EXPECT_FALSE(read_framed(framed).has_value());
}

TEST(FramingTest, RecoveryStopsAtTheTrailer) {
  // A short frame written in place over a longer one: the old frame's
  // chunk 1, CRC-valid and past the new trailer, must not stand in for
  // the new frame's damaged chunk 1.
  const auto old_frame = frame_in_chunks(test_payload(8 * 300, 18), 300);
  const auto new_frame = frame_in_chunks(test_payload(3 * 100, 19), 100);
  auto overwritten = old_frame;
  std::copy(new_frame.begin(), new_frame.end(), overwritten.begin());
  overwritten[chunk_at(1, 100) + kChunkHeaderBytes + 3] ^= 0x01;

  auto rec = recover_framed(overwritten);
  ASSERT_TRUE(rec.has_value()) << rec.status().to_string();
  EXPECT_FALSE(rec->header_from_replica);
  ASSERT_EQ(rec->chunks.size(), 3u);
  EXPECT_EQ(rec->chunks[0].state, ChunkState::kIntact);
  EXPECT_EQ(rec->chunks[1].state, ChunkState::kCorrupt);
  EXPECT_EQ(rec->chunks[2].state, ChunkState::kIntact);
  for (const ChunkReport& c : rec->chunks) {
    EXPECT_LE(c.payload.data() + c.payload.size(),
              overwritten.data() + new_frame.size());
  }
}

TEST(FramingTest, OverheadFormulaMatchesRealStreams) {
  for (const std::size_t n : {0u, 1u, 512u, 513u, 4096u, 10'000u}) {
    const auto payload = test_payload(n, 15 + n);
    const auto framed = frame_in_chunks(payload, 512);
    EXPECT_EQ(framed.size(), n + frame_overhead_bytes(n, 512)) << n;
  }
}

TEST(FramingTest, HostileChunkCountRejectedBeforeAllocation) {
  const auto payload = test_payload(64, 16);
  const auto framed = frame_in_chunks(payload, 64);
  // Overwrite each header byte: either the CRC or the field checks must
  // fail the strict read — never success, never a crash.
  for (std::size_t i = 4; i < kFrameHeaderBytes; ++i) {
    auto mutated = framed;
    mutated[i] = 0xFF;
    (void)recover_framed(mutated);  // must not crash or over-allocate
    EXPECT_FALSE(read_framed(mutated).has_value());
  }
  // A CRC-valid header and trailer claiming more chunks than the limit,
  // or more than the stream can hold, are rejected before the chunk list
  // is allocated. chunk_count is the u32 at offset 8; the u64 write also
  // puts 0 into the low half of the nominal chunk size, which is 0 anyway.
  for (const std::uint32_t count : {kMaxFrameChunks + 1, kMaxFrameChunks}) {
    auto forged = framed;
    forge_u64_field(forged, 8, count);
    auto strict = read_framed(forged);
    ASSERT_FALSE(strict.has_value()) << count;
    EXPECT_EQ(strict.status().code(), ErrorCode::kCorruptData);
  }
  auto over_limit = framed;
  forge_u64_field(over_limit, 8, std::uint64_t{kMaxFrameChunks} + 1);
  EXPECT_FALSE(probe_frame(over_limit).has_value());
  EXPECT_FALSE(recover_framed(over_limit).has_value());
}

}  // namespace
}  // namespace lcp::compress
