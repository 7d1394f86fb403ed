// Heap traffic and write coverage of the restore path. Slabs decode
// straight into the restored field, and whole-field decompress decodes
// straight into the returned field, so once the codecs' scratch pools are
// warm each makes one allocation as large as the field — the field itself
// — and no copy of it.
//
// Neither field is zero-filled: every element must be written by the
// decode, with zeros for a lost slab. This binary replaces the global
// operator new, fills every allocation with 0xFF bytes (a float NaN) so
// that no test can pass on the zeros of fresh pages, and counts the large
// allocations made while a test measures. It holds no other test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "compress/common/registry.hpp"
#include "data/generators.hpp"
#include "partial_failure.hpp"
#include "support/thread_pool.hpp"

namespace {

/// Every byte of a fresh allocation; 0xFFFFFFFF is a quiet NaN.
constexpr unsigned char kPoison = 0xFF;

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_min_bytes{0};
std::atomic<std::size_t> g_large{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed) &&
      size >= g_min_bytes.load(std::memory_order_relaxed)) {
    g_large.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc{};
  }
  std::memset(p, kPoison, size);
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lcp::compress {
namespace {

constexpr std::size_t kSlab = std::size_t{1} << 15;

/// Allocations of at least `min_bytes` made while `fn` runs.
template <typename Fn>
std::size_t large_allocations(std::size_t min_bytes, Fn&& fn) {
  g_min_bytes = min_bytes;
  g_large = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_large.load();
}

bool is_positive_zero(float x) { return std::bit_cast<std::uint32_t>(x) == 0; }

TEST(PoisonedHeapTest, FreshAllocationsReadNaN) {
  const auto values = std::make_unique_for_overwrite<float[]>(64);
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(std::isnan(values[i])) << i;
  }
  const auto field = data::Field::for_overwrite("f", data::Dims::d1(64));
  EXPECT_TRUE(std::all_of(field.values().begin(), field.values().end(),
                          [](float x) { return std::isnan(x); }));
}

class DecodeAllocTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DecodeAllocTest, InlineWalkAllocatesOnlyTheField) {
  // NYX 64^3: 8 slabs of 32 Ki elements.
  const data::Field field = data::generate_nyx(64, 11);
  CheckpointOptions opts;
  opts.codec = GetParam();
  opts.bound = ErrorBound::absolute(1e-2);
  opts.chunk_elements = kSlab;
  const auto bytes = write_checkpoint(field, opts);
  ASSERT_TRUE(bytes.has_value()) << bytes.status().to_string();
  const auto rec = recover_framed(*bytes);
  ASSERT_TRUE(rec.has_value()) << rec.status().to_string();
  const SlabLayout layout = SlabLayout::of(field, opts);
  ASSERT_EQ(layout.slab_count(), 8U);
  const SlabSource source = [&rec](std::size_t s) {
    const ChunkReport& chunk = rec->chunks[s + 1];
    return SlabBytes{static_cast<std::uint32_t>(s + 1), chunk.state,
                     chunk.status, chunk.payload, {}};
  };

  auto warm = decode_slabs(layout, source, {});
  ASSERT_TRUE(warm.has_value()) << warm.status().to_string();
  ASSERT_TRUE(warm->complete());

  Expected<RecoveryReport> report = Status::internal("not run");
  const std::size_t large =
      large_allocations(kSlab * sizeof(float), [&] {
        report = decode_slabs(layout, source, {});
      });
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_TRUE(report->complete());
  EXPECT_EQ(large, 1U) << "allocations of at least one slab's floats";
  const auto a = report->field.values();
  const auto b = warm->field.values();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST_P(DecodeAllocTest, WholeFieldDecompressAllocatesOnlyTheField) {
  // NYX 48^3: 432 KiB of floats, decoded as one container.
  const data::Field field = data::generate_nyx(48, 12);
  const std::size_t field_bytes = field.size_bytes().bytes();
  ASSERT_GE(field_bytes, std::size_t{128} << 10);
  const auto codec = make_compressor(GetParam());
  ASSERT_TRUE(codec.has_value()) << codec.status().to_string();
  const auto packed = (*codec)->compress(field, ErrorBound::absolute(1e-2));
  ASSERT_TRUE(packed.has_value()) << packed.status().to_string();

  auto warm = (*codec)->decompress(packed->container);
  ASSERT_TRUE(warm.has_value()) << warm.status().to_string();

  Expected<DecompressResult> result = Status::internal("not run");
  const std::size_t large = large_allocations(field_bytes, [&] {
    result = (*codec)->decompress(packed->container);
  });
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(large, 1U) << "allocations of at least the field's bytes";
  const auto a = result->field.values();
  const auto b = warm->field.values();
  ASSERT_EQ(a.size(), field.element_count());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
}

TEST_P(DecodeAllocTest, WholeFieldDecompressWritesEveryElement) {
  // The returned field against a decode into zeroed memory: an element
  // the codec skipped reads NaN in one and 0 in the other.
  const data::Field field = data::generate_nyx(24, 13);
  const auto codec = make_compressor(GetParam());
  ASSERT_TRUE(codec.has_value()) << codec.status().to_string();
  const auto packed = (*codec)->compress(field, ErrorBound::absolute(1e-3));
  ASSERT_TRUE(packed.has_value()) << packed.status().to_string();
  const auto result = (*codec)->decompress(packed->container);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  std::vector<float> zeroed(field.element_count(), 0.0F);
  ASSERT_TRUE((*codec)->decompress_into(packed->container, zeroed).is_ok());
  const auto got = result->field.values();
  ASSERT_EQ(got.size(), zeroed.size());
  EXPECT_EQ(std::memcmp(got.data(), zeroed.data(), got.size_bytes()), 0);
  EXPECT_TRUE(std::none_of(got.begin(), got.end(),
                           [](float x) { return std::isnan(x); }));
  const auto stats = data::compare_fields(field, result->field);
  ASSERT_TRUE(stats.has_value());
  EXPECT_LE(stats->max_abs_error, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(SzAndZfp, DecodeAllocTest,
                         ::testing::Values("sz", "zfp"),
                         [](const auto& suite_info) {
                           return suite_info.param;
                         });
INSTANTIATE_TEST_SUITE_P(Lossless, DecodeAllocTest,
                         ::testing::Values("lossless"),
                         [](const auto& suite_info) {
                           return suite_info.param;
                         });

// --- decode_slabs on poisoned memory ---------------------------------------

constexpr std::size_t kSmallSlab = 512;

/// NYX 26^3 = 17576 elements: 35 slabs of 512, the last one short.
const data::Field& nyx_field() {
  static const data::Field field = data::generate_nyx(26, 42);
  return field;
}

/// How a slab reaches the walk.
enum class Fate { kIntact, kLostInFrame, kFailsPartway };

/// (codec, fill, workers); 0 workers is the inline walk.
using PoisonCase = std::tuple<std::string, RecoveryFill, std::size_t>;

class DecodeSlabsPoisonedTest : public ::testing::TestWithParam<PoisonCase> {
 protected:
  void SetUp() override {
    opts_.codec = std::get<0>(GetParam());
    opts_.bound = ErrorBound::absolute(1e-2);
    opts_.chunk_elements = kSmallSlab;
    policy_.fill = std::get<1>(GetParam());
    auto bytes = write_checkpoint(nyx_field(), opts_);
    ASSERT_TRUE(bytes.has_value()) << bytes.status().to_string();
    bytes_ = std::move(*bytes);
    auto rec = recover_framed(bytes_);
    ASSERT_TRUE(rec.has_value()) << rec.status().to_string();
    rec_ = std::move(*rec);
    layout_ = SlabLayout::of(nyx_field(), opts_);
    ASSERT_EQ(layout_.slab_count(), 35U);
  }

  /// decode_slabs with each slab's fate from `fates` (intact when absent).
  Expected<RecoveryReport> walk(const std::vector<Fate>& fates) {
    broken_.assign(layout_.slab_count(), {});
    for (std::size_t s = 0; s < fates.size(); ++s) {
      if (fates[s] == Fate::kFailsPartway) {
        broken_[s] = fails_partway(rec_.chunks.at(s + 1).payload);
      }
    }
    const SlabSource source = [this, &fates](std::size_t s) {
      const ChunkReport& chunk = rec_.chunks.at(s + 1);
      SlabBytes slab{static_cast<std::uint32_t>(s + 1), chunk.state,
                     chunk.status, chunk.payload, {}};
      const Fate fate = s < fates.size() ? fates[s] : Fate::kIntact;
      if (fate == Fate::kLostInFrame) {
        slab.frame_state = ChunkState::kCorrupt;
        slab.status = Status::corrupt_data("chunk crc mismatch");
        slab.bytes = {};
      } else if (fate == Fate::kFailsPartway) {
        slab.bytes = broken_[s];
      }
      return slab;
    };
    const std::size_t workers = std::get<2>(GetParam());
    if (workers == 0) {
      return decode_slabs(layout_, source, policy_);
    }
    ThreadPool pool{workers};
    return decode_slabs(layout_, source, policy_, &pool);
  }

  /// The walk as it was before the field was allocated for overwrite:
  /// a zero-filled field, intact slabs decoded into it, then the fill.
  std::vector<float> oracle(const std::vector<Fate>& fates) const {
    std::vector<float> out(nyx_field().element_count(), 0.0F);
    std::vector<SlabRegion> regions;
    for (std::size_t s = 0; s < layout_.slab_count(); ++s) {
      const Fate fate = s < fates.size() ? fates[s] : Fate::kIntact;
      const std::size_t offset = layout_.slab_offset(s);
      const std::size_t count = layout_.slab_elements(s);
      if (fate == Fate::kIntact) {
        EXPECT_TRUE(decompress_any_into(rec_.chunks.at(s + 1).payload,
                                        std::span{out}.subspan(offset, count))
                        .is_ok())
            << "slab " << s;
      }
      regions.push_back({offset, count, fate == Fate::kIntact});
    }
    if (policy_.fill == RecoveryFill::kInterpolate) {
      interpolate_lost_regions(out, regions);
    }
    return out;
  }

  void expect_matches_oracle(const std::vector<Fate>& fates) {
    const auto report = walk(fates);
    ASSERT_TRUE(report.has_value()) << report.status().to_string();
    const auto got = report->field.values();
    const auto want = oracle(fates);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t s = 0; s < report->slabs.size(); ++s) {
      const SlabVerdict& v = report->slabs[s];
      const Fate fate = s < fates.size() ? fates[s] : Fate::kIntact;
      EXPECT_EQ(v.recovered, fate == Fate::kIntact) << "slab " << s;
      const auto range = got.subspan(v.element_offset, v.element_count);
      if (fate != Fate::kIntact && policy_.fill == RecoveryFill::kZero) {
        EXPECT_TRUE(std::all_of(range.begin(), range.end(), is_positive_zero))
            << "lost slab " << s << " is not exactly 0.0f";
      }
      EXPECT_EQ(std::memcmp(range.data(), want.data() + v.element_offset,
                            range.size_bytes()),
                0)
          << "slab " << s;
    }
    EXPECT_TRUE(std::none_of(got.begin(), got.end(),
                             [](float x) { return std::isnan(x); }));
  }

  CheckpointOptions opts_;
  RecoveryPolicy policy_;
  std::vector<std::uint8_t> bytes_;
  FrameRecovery rec_;
  SlabLayout layout_;
  std::vector<std::vector<std::uint8_t>> broken_;
};

TEST_P(DecodeSlabsPoisonedTest, IntactSlabsCoverTheField) {
  expect_matches_oracle({});
}

TEST_P(DecodeSlabsPoisonedTest, LostAndPartlyDecodedSlabsReadZeroOrFill) {
  // Lost in the frame: the first slab, a run of two and the short last
  // one; failing partway: one slab alone and one beside a lost run.
  std::vector<Fate> fates(35, Fate::kIntact);
  for (const std::size_t s : {0, 7, 8, 34}) {
    fates[s] = Fate::kLostInFrame;
  }
  for (const std::size_t s : {9, 20}) {
    fates[s] = Fate::kFailsPartway;
  }
  expect_matches_oracle(fates);
}

TEST_P(DecodeSlabsPoisonedTest, EverySlabLostReadsZero) {
  // No surviving neighbour: interpolation leaves the walk's zeros, so the
  // whole field must read 0.0f under either fill.
  for (const Fate fate : {Fate::kLostInFrame, Fate::kFailsPartway}) {
    SCOPED_TRACE(fate == Fate::kLostInFrame ? "lost in frame"
                                            : "fails partway");
    const std::vector<Fate> fates(35, fate);
    const auto report = walk(fates);
    ASSERT_TRUE(report.has_value()) << report.status().to_string();
    EXPECT_EQ(report->recovered_slabs(), 0U);
    const auto got = report->field.values();
    EXPECT_TRUE(std::all_of(got.begin(), got.end(), is_positive_zero));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FillsAndWalks, DecodeSlabsPoisonedTest,
    ::testing::Combine(::testing::Values("sz", "zfp"),
                       ::testing::Values(RecoveryFill::kZero,
                                         RecoveryFill::kInterpolate),
                       ::testing::Values(std::size_t{0}, std::size_t{3})),
    [](const auto& suite_info) {
      const std::size_t workers = std::get<2>(suite_info.param);
      return std::get<0>(suite_info.param) +
             (std::get<1>(suite_info.param) == RecoveryFill::kZero
                  ? "_zero"
                  : "_interpolate") +
             (workers == 0 ? "_inline" : "_pool" + std::to_string(workers));
    });

}  // namespace
}  // namespace lcp::compress
