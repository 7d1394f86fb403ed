#pragma once
// Block partitioning for the ZFP-class codec: fields are processed in 4^d
// blocks (d = effective rank, 1..3). Boundary blocks are padded by edge
// replication on gather; scatter writes only the in-domain region.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "compress/common/codec.hpp"
#include "data/field.hpp"

namespace lcp::zfp {

using compress::effective_extents;

/// Geometry of the 4^d block grid over a field.
class BlockGrid {
 public:
  explicit BlockGrid(std::vector<std::size_t> extents);

  [[nodiscard]] std::size_t rank() const noexcept { return ext_.size(); }
  [[nodiscard]] std::size_t block_elements() const noexcept {
    return std::size_t{1} << (2 * rank());  // 4^rank
  }
  [[nodiscard]] std::size_t block_count() const noexcept;

  /// One block's place in the field.
  struct Box {
    std::array<std::size_t, 3> origin{};
    std::array<std::size_t, 3> valid{};  // in-domain extent per axis (1..4)
  };

  /// Box of block `b` in row-major block order (slowest axis first).
  [[nodiscard]] Box box(std::size_t b) const;

  /// Steps `box` to the next block in index order, carrying coordinates
  /// instead of decomposing an index; the last block steps to the first.
  void next(Box& box) const noexcept;

  /// Copies the block at `box` into `out` (size block_elements()),
  /// replicating edge samples into the padding of boundary blocks.
  void gather(std::span<const float> field, const Box& box,
              std::span<float> out) const;

  /// Writes the block at `box` from `in` back into `field`, skipping
  /// padding.
  void scatter(std::span<const float> in, const Box& box,
               std::span<float> field) const;

 private:
  std::vector<std::size_t> ext_;     // field extents, padded to rank entries
  std::vector<std::size_t> blocks_;  // block counts per axis
};

}  // namespace lcp::zfp
