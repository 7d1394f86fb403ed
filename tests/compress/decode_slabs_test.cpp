// The one slab decode walk on a pool: at every worker count the report —
// field bytes, every verdict (status text included), lost_elements and the
// returned error — is the inline walk's, whatever the damage. A slab whose
// container header claims more elements than its layout holds is rejected
// at the header, before any codec runs. Slabs decode straight into the
// field, so a slab whose codec fails partway reads zero again afterwards.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <numeric>
#include <utility>
#include <string>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "compress/common/container.hpp"
#include "compress/common/registry.hpp"
#include "support/bytestream.hpp"
#include "data/generators.hpp"
#include "partial_failure.hpp"
#include "support/thread_pool.hpp"

namespace lcp::compress {
namespace {

constexpr std::size_t kChunk = 512;

CheckpointOptions sz_options() {
  CheckpointOptions opts;
  opts.codec = "sz";
  opts.bound = ErrorBound::absolute(1e-3);
  opts.chunk_elements = kChunk;
  return opts;
}

/// NYX 26^3 = 17576 elements: 35 slabs of 512, the last one short.
const data::Field& nyx_field() {
  static const data::Field field = data::generate_nyx(26, 42);
  return field;
}

/// A checkpoint stream walked into its chunks, plus the layout it was
/// written under.
struct Walked {
  SlabLayout layout;
  FrameRecovery rec;
};

Walked walk(std::span<const std::uint8_t> bytes) {
  auto rec = recover_framed(bytes);
  EXPECT_TRUE(rec.has_value()) << rec.status().to_string();
  return {SlabLayout::of(nyx_field(), sz_options()), std::move(*rec)};
}

/// The frame chunks as a slab source. The slabs in `scrambled` are handed
/// over as an owned copy of their container cut to half its length (the
/// frame itself verified, so the damage reaches the decoder).
SlabSource chunk_source(const Walked& w, std::vector<std::size_t> scrambled) {
  return [&w, scrambled = std::move(scrambled)](std::size_t s) {
    const ChunkReport& chunk = w.rec.chunks.at(s + 1);
    SlabBytes slab{static_cast<std::uint32_t>(s + 1), chunk.state,
                   chunk.status, chunk.payload, {}};
    if (std::find(scrambled.begin(), scrambled.end(), s) != scrambled.end()) {
      slab.owned.assign(chunk.payload.begin(),
                        chunk.payload.begin() +
                            static_cast<std::ptrdiff_t>(chunk.payload.size() / 2));
      slab.bytes = slab.owned;
    }
    return slab;
  };
}

/// Every byte and verdict of two walks agree, errors included.
void expect_same_walk(const Expected<RecoveryReport>& got,
                      const Expected<RecoveryReport>& want,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want.has_value()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().to_string(), want.status().to_string());
    return;
  }
  EXPECT_EQ(got->total_elements, want->total_elements);
  EXPECT_EQ(got->lost_elements, want->lost_elements);
  EXPECT_EQ(got->field.name(), want->field.name());
  EXPECT_EQ(got->field.dims(), want->field.dims());
  const auto a = got->field.values();
  const auto b = want->field.values();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
  ASSERT_EQ(got->slabs.size(), want->slabs.size());
  for (std::size_t s = 0; s < want->slabs.size(); ++s) {
    const SlabVerdict& x = got->slabs[s];
    const SlabVerdict& y = want->slabs[s];
    EXPECT_EQ(x.chunk_seq, y.chunk_seq) << "slab " << s;
    EXPECT_EQ(x.element_offset, y.element_offset) << "slab " << s;
    EXPECT_EQ(x.element_count, y.element_count) << "slab " << s;
    EXPECT_EQ(x.frame_state, y.frame_state) << "slab " << s;
    EXPECT_EQ(x.status.code(), y.status.code()) << "slab " << s;
    EXPECT_EQ(x.status.to_string(), y.status.to_string()) << "slab " << s;
    EXPECT_EQ(x.recovered, y.recovered) << "slab " << s;
  }
}

/// Decodes `bytes` inline and on pools of 1, 2, 3 and 7 workers; every
/// pooled walk must equal the inline one. Returns the inline walk.
Expected<RecoveryReport> expect_pool_invariant(
    std::span<const std::uint8_t> bytes, const RecoveryPolicy& policy,
    const std::vector<std::size_t>& scrambled = {}) {
  const Walked w = walk(bytes);
  const SlabSource source = chunk_source(w, scrambled);
  auto inline_walk = decode_slabs(w.layout, source, policy);
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
    ThreadPool pool{workers};
    expect_same_walk(decode_slabs(w.layout, source, policy, &pool),
                     inline_walk, std::to_string(workers) + " workers");
  }
  return inline_walk;
}

std::vector<std::uint8_t> clean_checkpoint() {
  auto bytes = write_checkpoint(nyx_field(), sz_options());
  EXPECT_TRUE(bytes.has_value());
  return std::move(*bytes);
}

/// Flips one payload byte of the frame chunks carrying `slabs` (chunk
/// s + 1), so the frame CRC loses them.
std::vector<std::uint8_t> frame_damaged(std::vector<std::uint8_t> bytes,
                                        std::initializer_list<int> slabs) {
  const auto rec = recover_framed(bytes);
  EXPECT_TRUE(rec.has_value());
  for (const int s : slabs) {
    const auto& payload = rec->chunks.at(static_cast<std::size_t>(s) + 1)
                              .payload;
    const auto at = static_cast<std::size_t>(payload.data() - bytes.data());
    bytes[at + payload.size() / 2] ^= 0x5A;
  }
  return bytes;
}

TEST(DecodeSlabsTest, CleanCheckpointIsTheSameAtEveryWorkerCount) {
  const auto walked = expect_pool_invariant(clean_checkpoint(), {});
  ASSERT_TRUE(walked.has_value());
  EXPECT_EQ(walked->slabs.size(), 35U);
  EXPECT_TRUE(walked->complete());
}

TEST(DecodeSlabsTest, SeededDamageUnderZeroFillIsTheSameAtEveryWorkerCount) {
  const auto bytes = frame_damaged(clean_checkpoint(), {0, 9, 10, 22});
  const auto walked = expect_pool_invariant(bytes, {}, {4, 17, 34});
  ASSERT_TRUE(walked.has_value());
  EXPECT_EQ(walked->recovered_slabs(), 35U - 7U);
  EXPECT_FALSE(walked->slabs[4].status.is_ok());
  EXPECT_EQ(walked->slabs[4].frame_state, ChunkState::kIntact);
  EXPECT_EQ(walked->slabs[9].frame_state, ChunkState::kCorrupt);
}

TEST(DecodeSlabsTest,
     SeededDamageUnderInterpolateFillIsTheSameAtEveryWorkerCount) {
  RecoveryPolicy policy;
  policy.fill = RecoveryFill::kInterpolate;
  const auto bytes = frame_damaged(clean_checkpoint(), {3, 11, 12, 34});
  const auto walked = expect_pool_invariant(bytes, policy, {0, 20});
  ASSERT_TRUE(walked.has_value());
  EXPECT_EQ(walked->recovered_slabs(), 35U - 6U);
}

TEST(DecodeSlabsTest, StrictFailureReportsTheLowerOfTwoLostSlabs) {
  const auto bytes = frame_damaged(clean_checkpoint(), {23});
  RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  // Slab 6 is lost to a cut container, slab 23 to the frame CRC. On a pool
  // either may be decoded first; the error is slab 6's every time.
  const auto walked = expect_pool_invariant(bytes, strict, {6});
  ASSERT_FALSE(walked.has_value());
  const Walked w = walk(bytes);
  const auto lenient = decode_slabs(w.layout, chunk_source(w, {6}), {});
  ASSERT_TRUE(lenient.has_value());
  EXPECT_EQ(walked.status().to_string(),
            lenient->slabs[6].status.with_context("strict policy").to_string());
}

TEST(DecodeSlabsTest, TruncatedFrameIsTheSameAtEveryWorkerCount) {
  auto bytes = clean_checkpoint();
  const auto rec = recover_framed(bytes);
  ASSERT_TRUE(rec.has_value());
  // Cut inside slab 12's chunk: slabs 12.. and the manifest replica go.
  const auto cut = static_cast<std::size_t>(rec->chunks[13].payload.data() -
                                            bytes.data()) +
                   10;
  bytes.resize(cut);
  const auto walked = expect_pool_invariant(bytes, {});
  ASSERT_TRUE(walked.has_value());
  EXPECT_EQ(walked->recovered_slabs(), 12U);
  RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  EXPECT_FALSE(expect_pool_invariant(bytes, strict).has_value());
}

TEST(DecodeSlabsTest, HostileElementClaimIsRejectedBeforeAnyCodecRuns) {
  // Slab 1's container claims 2^30 elements over a few payload bytes: it
  // gets a typed verdict at the header, so no codec allocates its claim.
  const std::vector<std::uint8_t> payload(64, 0xAB);
  const auto hostile = build_container(
      "sz", ErrorBound::absolute(1e-3), data::Dims::d1(std::size_t{1} << 30),
      "rho", payload);
  const SlabLayout layout{"sz", ErrorBound::absolute(1e-3),
                          data::Dims::d1(4 * kChunk), "rho", kChunk};
  const auto clean = write_checkpoint(
      data::Field{"rho", layout.dims, std::vector<float>(4 * kChunk, 1.5F)},
      sz_options());
  ASSERT_TRUE(clean.has_value());
  const auto rec = recover_framed(*clean);
  ASSERT_TRUE(rec.has_value());
  const SlabSource source = [&](std::size_t s) {
    return SlabBytes{static_cast<std::uint32_t>(s + 1), ChunkState::kIntact,
                     Status::ok(),
                     s == 1 ? std::span<const std::uint8_t>{hostile}
                            : rec->chunks[s + 1].payload,
                     {}};
  };
  ThreadPool pool{3};
  const auto inline_walk = decode_slabs(layout, source, {});
  expect_same_walk(decode_slabs(layout, source, {}, &pool), inline_walk,
                   "3 workers");
  ASSERT_TRUE(inline_walk.has_value());
  const SlabVerdict& v = inline_walk->slabs[1];
  EXPECT_FALSE(v.recovered);
  EXPECT_EQ(v.status.code(), ErrorCode::kCorruptData);
  EXPECT_NE(v.status.message().find("claims 1073741824 elements"),
            std::string::npos)
      << v.status.to_string();
  EXPECT_EQ(inline_walk->lost_elements, kChunk);
  EXPECT_EQ(inline_walk->recovered_slabs(), 3U);
}

/// Decodes the `codec` checkpoint of the NYX field with the slabs in
/// `damaged` replaced by fails_partway copies, inline and on
/// ThreadPool{3}, under `policy`. Checks both walks agree and returns the
/// inline one and the clean walk.
struct DamagedWalk {
  RecoveryReport clean;
  RecoveryReport damaged;
};

DamagedWalk walk_with_partial_failures(const std::string& codec,
                                       const std::vector<std::size_t>& damaged,
                                       const RecoveryPolicy& policy) {
  CheckpointOptions opts = sz_options();
  opts.codec = codec;
  opts.bound = ErrorBound::absolute(1e-2);
  const auto bytes = write_checkpoint(nyx_field(), opts);
  EXPECT_TRUE(bytes.has_value());
  const auto rec = recover_framed(*bytes);
  EXPECT_TRUE(rec.has_value());
  const SlabLayout layout = SlabLayout::of(nyx_field(), opts);
  std::vector<std::vector<std::uint8_t>> broken(layout.slab_count());
  for (const std::size_t s : damaged) {
    broken[s] = fails_partway(rec->chunks.at(s + 1).payload);
    // The codec really writes into the span before it fails.
    std::vector<float> scratch(layout.slab_elements(s), -7.0F);
    EXPECT_FALSE(decompress_any_into(broken[s], scratch).is_ok()) << s;
    EXPECT_NE(std::count(scratch.begin(), scratch.end(), -7.0F),
              static_cast<std::ptrdiff_t>(scratch.size()))
        << "slab " << s << " decode failed before writing";
  }
  const auto source = [&](bool use_broken) -> SlabSource {
    return [&, use_broken](std::size_t s) {
      const auto& chunk = rec->chunks.at(s + 1);
      SlabBytes slab{static_cast<std::uint32_t>(s + 1), chunk.state,
                     chunk.status, chunk.payload, {}};
      if (use_broken && !broken[s].empty()) {
        slab.bytes = broken[s];
      }
      return slab;
    };
  };
  auto clean = decode_slabs(layout, source(false), policy);
  auto inline_walk = decode_slabs(layout, source(true), policy);
  ThreadPool pool{3};
  expect_same_walk(decode_slabs(layout, source(true), policy, &pool),
                   inline_walk, codec + " on 3 workers");
  EXPECT_TRUE(clean.has_value());
  EXPECT_TRUE(inline_walk.has_value());
  return {std::move(*clean), std::move(*inline_walk)};
}

TEST(DecodeSlabsTest, SlabThatFailsPartwayReadsZeroAndTheRestIsUntouched) {
  std::vector<std::size_t> every(35);
  std::iota(every.begin(), every.end(), std::size_t{0});
  // Two damaged slabs under the zero fill, then every slab lost, where
  // interpolate_lost_regions leaves the zero fill standing too.
  const std::vector<std::pair<std::vector<std::size_t>, RecoveryFill>> cases{
      {{5, 21}, RecoveryFill::kZero},
      {every, RecoveryFill::kZero},
      {every, RecoveryFill::kInterpolate}};
  for (const std::string codec : {"sz", "zfp"}) {
    for (const auto& [damaged, fill] : cases) {
      SCOPED_TRACE(codec + ", " + std::to_string(damaged.size()) +
                   " damaged, fill " + std::to_string(static_cast<int>(fill)));
      RecoveryPolicy policy;
      policy.fill = fill;
      const DamagedWalk w = walk_with_partial_failures(codec, damaged, policy);
      ASSERT_TRUE(w.clean.complete());
      EXPECT_EQ(w.damaged.recovered_slabs(), 35U - damaged.size());
      const auto got = w.damaged.field.values();
      const auto want = w.clean.field.values();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t s = 0; s < w.damaged.slabs.size(); ++s) {
        const SlabVerdict& v = w.damaged.slabs[s];
        const auto range = got.subspan(v.element_offset, v.element_count);
        if (std::find(damaged.begin(), damaged.end(), s) != damaged.end()) {
          EXPECT_FALSE(v.recovered);
          EXPECT_EQ(v.frame_state, ChunkState::kIntact);
          EXPECT_TRUE(std::all_of(range.begin(), range.end(),
                                  [](float x) { return x == 0.0F; }))
              << "slab " << s;
        } else {
          EXPECT_EQ(std::memcmp(range.data(), want.data() + v.element_offset,
                                range.size_bytes()),
                    0)
              << "slab " << s;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lcp::compress
