#include "compress/zfp/block.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace lcp::zfp {
namespace {

TEST(EffectiveExtentsTest, PassThroughUpToRankThree) {
  EXPECT_EQ(effective_extents(data::Dims::d1(100)),
            (std::vector<std::size_t>{100}));
  EXPECT_EQ(effective_extents(data::Dims::d3(4, 5, 6)),
            (std::vector<std::size_t>{4, 5, 6}));
}

TEST(EffectiveExtentsTest, RankFourMergesSlowestAxes) {
  const data::Dims d{{2, 3, 4, 5}};
  EXPECT_EQ(effective_extents(d), (std::vector<std::size_t>{6, 4, 5}));
}

TEST(BlockGridTest, CountsAndElements) {
  BlockGrid g1{{10}};
  EXPECT_EQ(g1.rank(), 1u);
  EXPECT_EQ(g1.block_elements(), 4u);
  EXPECT_EQ(g1.block_count(), 3u);  // ceil(10/4)

  BlockGrid g3{{8, 9, 4}};
  EXPECT_EQ(g3.block_elements(), 64u);
  EXPECT_EQ(g3.block_count(), 2u * 3u * 1u);
}

TEST(BlockGridTest, GatherScatterRoundTripsExactMultiples) {
  const std::vector<std::size_t> ext = {8, 8};
  BlockGrid grid{ext};
  std::vector<float> field(64);
  std::iota(field.begin(), field.end(), 0.0F);

  std::vector<float> rebuilt(64, -1.0F);
  std::vector<float> block(grid.block_elements());
  for (std::size_t b = 0; b < grid.block_count(); ++b) {
    grid.gather(field, grid.box(b), block);
    grid.scatter(block, grid.box(b), rebuilt);
  }
  EXPECT_EQ(rebuilt, field);
}

TEST(BlockGridTest, GatherScatterRoundTripsRaggedEdges) {
  for (const auto& ext :
       {std::vector<std::size_t>{5}, std::vector<std::size_t>{5, 7},
        std::vector<std::size_t>{3, 5, 6}}) {
    BlockGrid grid{ext};
    std::size_t n = 1;
    for (std::size_t e : ext) {
      n *= e;
    }
    std::vector<float> field(n);
    std::iota(field.begin(), field.end(), 1.0F);

    std::vector<float> rebuilt(n, -99.0F);
    std::vector<float> block(grid.block_elements());
    for (std::size_t b = 0; b < grid.block_count(); ++b) {
      grid.gather(field, grid.box(b), block);
      grid.scatter(block, grid.box(b), rebuilt);
    }
    EXPECT_EQ(rebuilt, field) << "rank " << ext.size();
  }
}

TEST(BlockGridTest, NextWalksEveryBoxInIndexOrder) {
  // The codec walks blocks by carried coordinates; every step must land on
  // the box the index decomposition gives, ragged edges included, and the
  // step after the last block wraps to the first.
  for (const auto& ext :
       {std::vector<std::size_t>{5}, std::vector<std::size_t>{8},
        std::vector<std::size_t>{5, 7}, std::vector<std::size_t>{3, 5, 6},
        std::vector<std::size_t>{4, 9, 1}}) {
    BlockGrid grid{ext};
    BlockGrid::Box box = grid.box(0);
    for (std::size_t b = 0; b < grid.block_count(); ++b, grid.next(box)) {
      const BlockGrid::Box want = grid.box(b);
      EXPECT_EQ(box.origin, want.origin) << "rank " << ext.size() << " b " << b;
      EXPECT_EQ(box.valid, want.valid) << "rank " << ext.size() << " b " << b;
    }
    EXPECT_EQ(box.origin, grid.box(0).origin) << "rank " << ext.size();
  }
}

TEST(BlockGridTest, BoundaryPaddingReplicatesEdge) {
  BlockGrid grid{{5}};  // blocks [0..3], [4..7 padded]
  std::vector<float> field = {1, 2, 3, 4, 5};
  std::vector<float> block(4);
  grid.gather(field, grid.box(1), block);
  EXPECT_EQ(block, (std::vector<float>{5, 5, 5, 5}));
}

TEST(BlockGridTest, ScatterNeverWritesOutsideDomain) {
  BlockGrid grid{{5, 5}};
  std::vector<float> field(25, 0.0F);
  std::vector<float> block(16, 9.0F);
  for (std::size_t b = 0; b < grid.block_count(); ++b) {
    grid.scatter(block, grid.box(b), field);
  }
  for (float v : field) {
    EXPECT_EQ(v, 9.0F);  // all 25 in-domain cells written, none skipped
  }
}

}  // namespace
}  // namespace lcp::zfp
