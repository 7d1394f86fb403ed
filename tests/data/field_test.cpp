#include "data/field.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <utility>

namespace lcp::data {
namespace {

TEST(DimsTest, ElementCountAndRank) {
  const auto d = Dims::d3(26, 1800, 3600);
  EXPECT_EQ(d.rank(), 3u);
  EXPECT_EQ(d.element_count(), 26u * 1800u * 3600u);
  EXPECT_EQ(Dims::d1(280953867).element_count(), 280953867u);
}

TEST(DimsTest, RowMajorOffsets) {
  const auto d = Dims::d3(2, 3, 4);
  const std::array<std::size_t, 3> first = {0, 0, 0};
  const std::array<std::size_t, 3> mid = {1, 2, 3};
  EXPECT_EQ(d.offset(first), 0u);
  EXPECT_EQ(d.offset(mid), 1u * 12 + 2u * 4 + 3u);
}

TEST(DimsTest, ToStringMatchesPaperStyle) {
  EXPECT_EQ(Dims::d3(512, 512, 512).to_string(), "512x512x512");
  EXPECT_EQ(Dims::d1(7).to_string(), "7");
}

TEST(DimsTest, EqualityComparison) {
  EXPECT_EQ(Dims::d2(3, 4), Dims::d2(3, 4));
  EXPECT_NE(Dims::d2(3, 4), Dims::d2(4, 3));
}

TEST(FieldTest, ZeroInitializedConstruction) {
  Field f{"t", Dims::d2(4, 5)};
  EXPECT_EQ(f.element_count(), 20u);
  EXPECT_EQ(f.size_bytes().bytes(), 80u);
  for (float v : f.values()) {
    EXPECT_EQ(v, 0.0F);
  }
}

TEST(FieldTest, ForOverwriteIsSizedAndWritable) {
  // The values are unspecified until written (the decode-allocation tests
  // run on a poisoned heap to check that decoders write them all).
  Field f = Field::for_overwrite("t", Dims::d2(3, 5));
  EXPECT_EQ(f.name(), "t");
  EXPECT_EQ(f.dims(), Dims::d2(3, 5));
  EXPECT_EQ(f.element_count(), 15u);
  EXPECT_EQ(f.size_bytes().bytes(), 60u);
  for (std::size_t i = 0; i < 15; ++i) {
    f.mutable_values()[i] = static_cast<float>(i);
  }
  const Field copy = f;
  const Field moved = std::move(f);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(copy.values()[i], static_cast<float>(i));
    EXPECT_EQ(moved.values()[i], static_cast<float>(i));
  }
}

TEST(FieldTest, IndexedAccess) {
  Field f{"t", Dims::d2(2, 2)};
  const std::array<std::size_t, 2> idx = {1, 0};
  f.at(idx) = 7.5F;
  EXPECT_EQ(f.values()[2], 7.5F);
  EXPECT_EQ(f.at(idx), 7.5F);
}

TEST(FieldTest, ValueRange) {
  Field f{"t", Dims::d1(4), {3.0F, -1.0F, 2.0F, 0.5F}};
  const auto r = f.value_range();
  EXPECT_EQ(r.lo, -1.0F);
  EXPECT_EQ(r.hi, 3.0F);
  EXPECT_EQ(r.span(), 4.0F);
}

TEST(FieldTest, EmptyDefaultField) {
  Field f;
  EXPECT_EQ(f.element_count(), 0u);
  const auto r = f.value_range();
  EXPECT_EQ(r.span(), 0.0F);
}

TEST(CompareFieldsTest, ExactReconstructionGivesZeroErrorInfinitePsnr) {
  Field a{"a", Dims::d1(3), {1.0F, 2.0F, 3.0F}};
  Field b{"b", Dims::d1(3), {1.0F, 2.0F, 3.0F}};
  const auto stats = compare_fields(a, b);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->max_abs_error, 0.0);
  EXPECT_TRUE(std::isinf(stats->psnr_db));
}

TEST(CompareFieldsTest, KnownErrors) {
  Field a{"a", Dims::d1(4), {0.0F, 0.0F, 0.0F, 4.0F}};
  Field b{"b", Dims::d1(4), {1.0F, 0.0F, 0.0F, 4.0F}};
  const auto stats = compare_fields(a, b);
  ASSERT_TRUE(stats.has_value());
  EXPECT_DOUBLE_EQ(stats->max_abs_error, 1.0);
  EXPECT_DOUBLE_EQ(stats->mean_abs_error, 0.25);
  EXPECT_DOUBLE_EQ(stats->rmse, 0.5);
  // PSNR = 20 log10(range / rmse) = 20 log10(8).
  EXPECT_NEAR(stats->psnr_db, 20.0 * std::log10(8.0), 1e-12);
}

TEST(CompareFieldsTest, SizeMismatchFails) {
  Field a{"a", Dims::d1(3)};
  Field b{"b", Dims::d1(4)};
  EXPECT_FALSE(compare_fields(a, b).has_value());
}

}  // namespace
}  // namespace lcp::data
