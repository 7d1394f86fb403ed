// Heap traffic of the inline slab decode walk. Slabs decode straight into
// the restored field, so once the codecs' scratch pools are warm,
// decode_slabs makes one allocation as large as a slab — the field itself
// — however many slabs it decodes. This binary replaces the global
// operator new to count those allocations, so it holds no other test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "compress/common/checkpoint.hpp"
#include "data/generators.hpp"

namespace {

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

INSTANTIATE_TEST_SUITE_P(SzAndZfp, DecodeAllocTest,
                         ::testing::Values("sz", "zfp"),
                         [](const auto& suite_info) {
                           return suite_info.param;
                         });

}  // namespace
}  // namespace lcp::compress
