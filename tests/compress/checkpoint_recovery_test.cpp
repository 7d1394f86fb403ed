// Checkpoint containers: write/read round trips, partial recovery with
// exactly n-k intact slabs bit-for-bit, zero vs interpolate fill, manifest
// replica survival, and the strict fail_on_any_loss policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "compress/common/checkpoint.hpp"
#include "data/generators.hpp"
#include "support/rng.hpp"

namespace lcp::compress {
namespace {

data::Field make_field(std::size_t n = 16 * 1024) {
  return data::generate_nyx(static_cast<std::size_t>(std::cbrt(n)) + 1, 42);
}

CheckpointOptions small_chunks(std::size_t chunk_elements = 2048) {
  CheckpointOptions opts;
  opts.codec = "lossless";  // bit-exact slabs simplify equality checks
  opts.chunk_elements = chunk_elements;
  return opts;
}

/// Byte offset of the frame chunk carrying slab `s` (chunk s+1) within a
/// checkpoint stream, found by walking the chunk headers.
std::size_t chunk_payload_offset(const std::vector<std::uint8_t>& bytes,
                                 std::uint32_t chunk_index) {
  std::size_t pos = kFrameHeaderBytes;
  for (std::uint32_t c = 0; c < chunk_index; ++c) {
    const std::uint32_t length =
        static_cast<std::uint32_t>(bytes[pos + 8]) |
        (static_cast<std::uint32_t>(bytes[pos + 9]) << 8) |
        (static_cast<std::uint32_t>(bytes[pos + 10]) << 16) |
        (static_cast<std::uint32_t>(bytes[pos + 11]) << 24);
    pos += kChunkHeaderBytes + length;
  }
  return pos + kChunkHeaderBytes;
}

TEST(CheckpointTest, WriteReadRoundTripIsBitExact) {
  const auto field = make_field();
  auto bytes = write_checkpoint(field, small_chunks());
  ASSERT_TRUE(bytes.has_value()) << bytes.status().to_string();

  auto back = read_checkpoint(*bytes);
  ASSERT_TRUE(back.has_value()) << back.status().to_string();
  EXPECT_EQ(back->name(), field.name());
  EXPECT_EQ(back->dims(), field.dims());
  const auto a = field.values();
  const auto b = back->values();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << i;
  }
}

TEST(CheckpointTest, LossyCodecRoundTripHonorsBound) {
  const auto field = make_field();
  CheckpointOptions opts;
  opts.codec = "sz";
  opts.bound = ErrorBound::absolute(1e-3);
  opts.chunk_elements = 4096;
  auto bytes = write_checkpoint(field, opts);
  ASSERT_TRUE(bytes.has_value());
  auto back = read_checkpoint(*bytes);
  ASSERT_TRUE(back.has_value()) << back.status().to_string();
  const auto a = field.values();
  const auto b = back->values();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-3) << i;
  }
}

TEST(CheckpointTest, RecoveryOfUndamagedStreamIsComplete) {
  const auto field = make_field();
  auto bytes = write_checkpoint(field, small_chunks());
  ASSERT_TRUE(bytes.has_value());
  auto report = recover_checkpoint(*bytes);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_TRUE(report->complete());
  EXPECT_EQ(report->recovered_fraction(), 1.0);
  EXPECT_FALSE(report->manifest_from_replica);
  EXPECT_FALSE(report->header_from_replica);
}

TEST(CheckpointTest, CorruptSlabsLeaveOthersBitForBit) {
  const auto field = make_field();
  const auto opts = small_chunks();
  auto bytes = write_checkpoint(field, opts);
  ASSERT_TRUE(bytes.has_value());

  // Corrupt slabs 1 and 3 (frame chunks 2 and 4).
  auto damaged = *bytes;
  damaged[chunk_payload_offset(damaged, 2) + 5] ^= 0xFF;
  damaged[chunk_payload_offset(damaged, 4) + 9] ^= 0xFF;

  EXPECT_FALSE(read_checkpoint(damaged).has_value());

  auto report = recover_checkpoint(damaged);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_FALSE(report->complete());
  EXPECT_EQ(report->recovered_slabs(), report->slabs.size() - 2);

  const auto original = field.values();
  const auto recovered = report->field.values();
  ASSERT_EQ(recovered.size(), original.size());
  for (const auto& slab : report->slabs) {
    for (std::size_t i = 0; i < slab.element_count; ++i) {
      const std::size_t at = slab.element_offset + i;
      if (slab.recovered) {
        ASSERT_EQ(recovered[at], original[at]) << "slab " << slab.chunk_seq - 1;
      } else {
        ASSERT_EQ(recovered[at], 0.0F) << "zero fill, slab "
                                       << slab.chunk_seq - 1;
      }
    }
  }

  // Damaged slabs carry a typed, contextualized status.
  EXPECT_FALSE(report->slabs[1].recovered);
  EXPECT_FALSE(report->slabs[1].status.is_ok());
  EXPECT_FALSE(report->slabs[3].recovered);
  EXPECT_EQ(report->summary(),
            "recovered " + std::to_string(report->slabs.size() - 2) + "/" +
                std::to_string(report->slabs.size()) + " slabs (" +
                [&] {
                  char buf[16];
                  std::snprintf(buf, sizeof(buf), "%.1f",
                                100.0 * report->recovered_fraction());
                  return std::string{buf};
                }() +
                "% of elements)");
}

TEST(CheckpointTest, InterpolateFillRampsAcrossLostSlab) {
  // A linear field recovers exactly under linear interpolation.
  const std::size_t n = 8192;
  std::vector<float> ramp(n);
  for (std::size_t i = 0; i < n; ++i) {
    ramp[i] = static_cast<float>(i);
  }
  const data::Field field{"ramp", data::Dims::d1(n), std::move(ramp)};
  auto bytes = write_checkpoint(field, small_chunks(1024));
  ASSERT_TRUE(bytes.has_value());

  auto damaged = *bytes;
  damaged[chunk_payload_offset(damaged, 3) + 2] ^= 0xFF;  // slab 2

  RecoveryPolicy policy;
  policy.fill = RecoveryFill::kInterpolate;
  auto report = recover_checkpoint(damaged, policy);
  ASSERT_TRUE(report.has_value());
  ASSERT_FALSE(report->slabs[2].recovered);
  const auto values = report->field.values();
  for (std::size_t i = 2 * 1024; i < 3 * 1024; ++i) {
    EXPECT_NEAR(values[i], static_cast<float>(i), 0.51F) << i;
  }
}

TEST(CheckpointTest, InterpolateClampsFlatAtLeadingSlab) {
  // Slab 0 has no left neighbor: the fill must hold flat at the right
  // neighbor's first value, never extrapolate the ramp below it.
  const std::size_t n = 8192;
  std::vector<float> ramp(n);
  for (std::size_t i = 0; i < n; ++i) {
    ramp[i] = 100.0F + static_cast<float>(i);
  }
  const data::Field field{"ramp", data::Dims::d1(n), std::move(ramp)};
  auto bytes = write_checkpoint(field, small_chunks(1024));
  ASSERT_TRUE(bytes.has_value());

  auto damaged = *bytes;
  damaged[chunk_payload_offset(damaged, 1) + 2] ^= 0xFF;  // slab 0

  RecoveryPolicy policy;
  policy.fill = RecoveryFill::kInterpolate;
  auto report = recover_checkpoint(damaged, policy);
  ASSERT_TRUE(report.has_value());
  ASSERT_FALSE(report->slabs[0].recovered);
  const auto values = report->field.values();
  const float anchor = 100.0F + 1024.0F;  // first surviving element
  for (std::size_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(values[i], anchor) << i;
  }
  // The surviving tail is untouched.
  EXPECT_EQ(values[1024], anchor);
  EXPECT_EQ(values[n - 1], 100.0F + static_cast<float>(n - 1));
}

TEST(CheckpointTest, InterpolateClampsFlatAtTrailingSlab) {
  // The last slab has no right neighbor: flat fill at the left
  // neighbor's final value.
  const std::size_t n = 8192;
  std::vector<float> ramp(n);
  for (std::size_t i = 0; i < n; ++i) {
    ramp[i] = static_cast<float>(i);
  }
  const data::Field field{"ramp", data::Dims::d1(n), std::move(ramp)};
  auto bytes = write_checkpoint(field, small_chunks(1024));
  ASSERT_TRUE(bytes.has_value());

  const std::uint32_t last_slab = static_cast<std::uint32_t>(n / 1024) - 1;
  auto damaged = *bytes;
  damaged[chunk_payload_offset(damaged, last_slab + 1) + 2] ^= 0xFF;

  RecoveryPolicy policy;
  policy.fill = RecoveryFill::kInterpolate;
  auto report = recover_checkpoint(damaged, policy);
  ASSERT_TRUE(report.has_value());
  ASSERT_FALSE(report->slabs[last_slab].recovered);
  const auto values = report->field.values();
  const float anchor = static_cast<float>(n - 1024 - 1);  // last survivor
  for (std::size_t i = n - 1024; i < n; ++i) {
    ASSERT_EQ(values[i], anchor) << i;
  }
}

TEST(InterpolateRegionsTest, MidRunRampsBetweenNeighbors) {
  std::vector<float> out = {0.0F, 0.0F, 0.0F, 0.0F, 10.0F};
  out[0] = 0.0F;
  const SlabRegion regions[] = {
      {0, 1, true}, {1, 3, false}, {4, 1, true}};
  interpolate_lost_regions(out, regions);
  // Ramp from out[0]=0 to out[4]=10 across 3 lost elements.
  EXPECT_FLOAT_EQ(out[1], 2.5F);
  EXPECT_FLOAT_EQ(out[2], 5.0F);
  EXPECT_FLOAT_EQ(out[3], 7.5F);
}

TEST(InterpolateRegionsTest, LeadingRunHoldsRightNeighbor) {
  std::vector<float> out = {0.0F, 0.0F, 7.0F, 8.0F};
  const SlabRegion regions[] = {{0, 2, false}, {2, 2, true}};
  interpolate_lost_regions(out, regions);
  EXPECT_FLOAT_EQ(out[0], 7.0F);
  EXPECT_FLOAT_EQ(out[1], 7.0F);
}

TEST(InterpolateRegionsTest, TrailingRunHoldsLeftNeighbor) {
  std::vector<float> out = {3.0F, 4.0F, 0.0F, 0.0F};
  const SlabRegion regions[] = {{0, 2, true}, {2, 2, false}};
  interpolate_lost_regions(out, regions);
  EXPECT_FLOAT_EQ(out[2], 4.0F);
  EXPECT_FLOAT_EQ(out[3], 4.0F);
}

TEST(InterpolateRegionsTest, NothingSurvivingLeavesFillUntouched) {
  std::vector<float> out = {0.0F, 0.0F};
  const SlabRegion regions[] = {{0, 2, false}};
  interpolate_lost_regions(out, regions);
  EXPECT_FLOAT_EQ(out[0], 0.0F);
  EXPECT_FLOAT_EQ(out[1], 0.0F);
}

TEST(CheckpointTest, ZeroFillIsDefault) {
  const auto field = make_field();
  auto bytes = write_checkpoint(field, small_chunks());
  ASSERT_TRUE(bytes.has_value());
  auto damaged = *bytes;
  damaged[chunk_payload_offset(damaged, 1) + 3] ^= 0xFF;  // slab 0
  auto report = recover_checkpoint(damaged);
  ASSERT_TRUE(report.has_value());
  ASSERT_FALSE(report->slabs[0].recovered);
  const auto values = report->field.values();
  for (std::size_t i = 0; i < report->slabs[0].element_count; ++i) {
    ASSERT_EQ(values[i], 0.0F) << i;
  }
}

TEST(CheckpointTest, FailOnAnyLossPolicyReturnsTypedError) {
  const auto field = make_field();
  auto bytes = write_checkpoint(field, small_chunks());
  ASSERT_TRUE(bytes.has_value());
  auto damaged = *bytes;
  damaged[chunk_payload_offset(damaged, 1) + 3] ^= 0xFF;

  RecoveryPolicy policy;
  policy.fail_on_any_loss = true;
  auto report = recover_checkpoint(damaged, policy);
  EXPECT_FALSE(report.has_value());
  EXPECT_EQ(report.status().code(), ErrorCode::kCorruptData);
}

TEST(CheckpointTest, ManifestSurvivesViaReplica) {
  const auto field = make_field();
  auto bytes = write_checkpoint(field, small_chunks());
  ASSERT_TRUE(bytes.has_value());

  // Destroy the manifest chunk (chunk 0) payload.
  auto damaged = *bytes;
  const std::size_t manifest_at = chunk_payload_offset(damaged, 0);
  Rng rng{7};
  for (std::size_t i = 0; i < 8; ++i) {
    damaged[manifest_at + i] = static_cast<std::uint8_t>(rng.next_u64());
  }

  auto report = recover_checkpoint(damaged);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_TRUE(report->manifest_from_replica);
  EXPECT_TRUE(report->complete());  // all slabs still intact
  const auto original = field.values();
  const auto recovered = report->field.values();
  ASSERT_EQ(recovered.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(recovered[i], original[i]) << i;
  }
}

TEST(CheckpointTest, BothManifestCopiesLostIsTypedError) {
  const auto field = make_field();
  auto bytes = write_checkpoint(field, small_chunks());
  ASSERT_TRUE(bytes.has_value());
  auto damaged = *bytes;
  const std::uint32_t last_chunk =
      static_cast<std::uint32_t>(2 + (field.element_count() + 2047) / 2048) - 1;
  damaged[chunk_payload_offset(damaged, 0) + 1] ^= 0xFF;
  damaged[chunk_payload_offset(damaged, last_chunk) + 1] ^= 0xFF;
  auto report = recover_checkpoint(damaged);
  EXPECT_FALSE(report.has_value());
  EXPECT_EQ(report.status().code(), ErrorCode::kCorruptData);
}

TEST(CheckpointTest, TruncatedCheckpointRecoversLeadingSlabs) {
  const auto field = make_field();
  auto bytes = write_checkpoint(field, small_chunks());
  ASSERT_TRUE(bytes.has_value());
  // Keep only the first three frame chunks (manifest + slabs 0-1).
  const std::size_t cut = chunk_payload_offset(*bytes, 3) - kChunkHeaderBytes;
  const std::vector<std::uint8_t> truncated(bytes->begin(),
                                            bytes->begin() +
                                                static_cast<std::ptrdiff_t>(cut));
  auto report = recover_checkpoint(truncated);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_TRUE(report->slabs[0].recovered);
  EXPECT_TRUE(report->slabs[1].recovered);
  for (std::size_t s = 2; s < report->slabs.size(); ++s) {
    EXPECT_FALSE(report->slabs[s].recovered) << s;
  }
}

TEST(CheckpointTest, StrictReadRejectsStaleBytesPastTheFrame) {
  // A smaller checkpoint written in place over a larger one leaves the old
  // file's tail behind the new frame. Both strict readers reject it by the
  // same rule (the trailer must end the stream and agree with the header);
  // recovery still returns every slab of the new frame.
  const auto old_field = make_field(64 * 1024);
  const auto new_field = make_field(8 * 1024);
  auto old_bytes = write_checkpoint(old_field, small_chunks());
  auto new_bytes = write_checkpoint(new_field, small_chunks());
  ASSERT_TRUE(old_bytes.has_value());
  ASSERT_TRUE(new_bytes.has_value());
  ASSERT_LT(new_bytes->size(), old_bytes->size());
  std::vector<std::uint8_t> overwritten = *old_bytes;
  std::copy(new_bytes->begin(), new_bytes->end(), overwritten.begin());

  ASSERT_TRUE(read_checkpoint(*new_bytes).has_value());
  auto strict = read_checkpoint(overwritten);
  ASSERT_FALSE(strict.has_value());
  EXPECT_EQ(strict.status().code(), ErrorCode::kCorruptData);
  auto framed = read_framed(overwritten);
  ASSERT_FALSE(framed.has_value());
  EXPECT_EQ(framed.status().code(), ErrorCode::kCorruptData);

  auto report = recover_checkpoint(overwritten);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_EQ(report->recovered_slabs(), report->slabs.size());
  ASSERT_EQ(report->field.element_count(), new_field.element_count());
  EXPECT_TRUE(std::equal(new_field.values().begin(), new_field.values().end(),
                         report->field.values().begin()));

  // Stray bytes between the last chunk and a trailer that still ends the
  // stream fail the same rule.
  std::vector<std::uint8_t> padded = *new_bytes;
  padded.insert(padded.end() - static_cast<std::ptrdiff_t>(kFrameTrailerBytes),
                3, std::uint8_t{0});
  EXPECT_FALSE(read_checkpoint(padded).has_value());
  EXPECT_FALSE(read_framed(padded).has_value());
}

TEST(CheckpointTest, RecoveryStopsAtTheTrailerOfAFrameOverALongerFile) {
  // A checkpoint written in place over a longer one of another field with
  // the same dims leaves the old frame's chunks, with the same sequence
  // numbers, behind the new trailer. A damaged chunk of the new frame must
  // be reported lost, not stood in for by the old chunk of its number.
  CheckpointOptions new_opts;
  new_opts.codec = "sz";
  new_opts.bound = ErrorBound::absolute(1e-2);
  new_opts.chunk_elements = 2048;
  CheckpointOptions old_opts = new_opts;
  old_opts.bound = ErrorBound::absolute(1e-5);
  const auto new_field = data::generate_nyx(32, 42);
  const auto old_field = data::generate_nyx(32, 7);
  ASSERT_EQ(new_field.dims(), old_field.dims());
  auto new_bytes = write_checkpoint(new_field, new_opts);
  auto old_bytes = write_checkpoint(old_field, old_opts);
  ASSERT_TRUE(new_bytes.has_value());
  ASSERT_TRUE(old_bytes.has_value());
  ASSERT_LT(new_bytes->size(), old_bytes->size());
  std::vector<std::uint8_t> overwritten = *old_bytes;
  std::copy(new_bytes->begin(), new_bytes->end(), overwritten.begin());
  constexpr std::uint32_t kVictim = 9;
  overwritten[chunk_payload_offset(*new_bytes, kVictim + 1) + 5] ^= 0x01;

  auto report = recover_checkpoint(overwritten);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  ASSERT_EQ(report->field.element_count(), new_field.element_count());
  ASSERT_GT(report->slabs.size(), kVictim + 1);
  const SlabVerdict& lost = report->slabs[kVictim];
  EXPECT_FALSE(lost.recovered);
  EXPECT_EQ(lost.frame_state, ChunkState::kCorrupt);
  EXPECT_EQ(report->recovered_slabs(), report->slabs.size() - 1);
  const auto truth = new_field.values();
  const auto got = report->field.values();
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (i >= lost.element_offset &&
        i < lost.element_offset + lost.element_count) {
      continue;
    }
    ASSERT_LE(std::abs(got[i] - truth[i]), 1e-2 * (1 + 1e-6)) << i;
  }
}

TEST(CheckpointTest, RejectsNonCheckpointFrames) {
  const std::vector<std::uint8_t> payload(1000, 0x5A);
  FramedWriter writer;  // no checkpoint flag
  writer.append_chunk(payload);
  writer.append_chunk(payload);
  const auto framed = writer.finish();
  auto report = recover_checkpoint(framed);
  EXPECT_FALSE(report.has_value());
  EXPECT_EQ(report.status().code(), ErrorCode::kInvalidArgument);
}

TEST(CheckpointTest, EmptyFieldIsRejected) {
  EXPECT_FALSE(write_checkpoint(data::Field{}, {}).has_value());
}

}  // namespace
}  // namespace lcp::compress
