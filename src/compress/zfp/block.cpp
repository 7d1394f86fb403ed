#include "compress/zfp/block.hpp"

#include <algorithm>

#include "support/status.hpp"

namespace lcp::zfp {

BlockGrid::BlockGrid(std::vector<std::size_t> extents) : ext_(std::move(extents)) {
  LCP_REQUIRE(!ext_.empty() && ext_.size() <= 3, "block grid rank must be 1..3");
  blocks_.resize(ext_.size());
  for (std::size_t a = 0; a < ext_.size(); ++a) {
    blocks_[a] = (ext_[a] + 3) / 4;
  }
}

std::size_t BlockGrid::block_count() const noexcept {
  std::size_t n = 1;
  for (std::size_t b : blocks_) {
    n *= b;
  }
  return n;
}

BlockGrid::Box BlockGrid::box(std::size_t b) const {
  LCP_REQUIRE(b < block_count(), "block index out of range");
  Box out;
  // Decompose b in row-major block coordinates (slowest axis first).
  std::size_t rem = b;
  for (std::size_t a = ext_.size(); a-- > 0;) {
    const std::size_t coord = rem % blocks_[a];
    rem /= blocks_[a];
    out.origin[a] = coord * 4;
    out.valid[a] = std::min<std::size_t>(4, ext_[a] - out.origin[a]);
  }
  return out;
}

void BlockGrid::next(Box& box) const noexcept {
  for (std::size_t a = ext_.size(); a-- > 0;) {
    box.origin[a] += 4;
    if (box.origin[a] < ext_[a]) {
      box.valid[a] = std::min<std::size_t>(4, ext_[a] - box.origin[a]);
      return;
    }
    box.origin[a] = 0;  // carry into the next slower axis
    box.valid[a] = std::min<std::size_t>(4, ext_[a]);
  }
}

void BlockGrid::gather(std::span<const float> field, const Box& bb,
                       std::span<float> out) const {
  LCP_REQUIRE(out.size() == block_elements(), "gather output size mismatch");
  const std::size_t r = rank();

  if (r == 1) {
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t ii = bb.origin[0] + std::min(i, bb.valid[0] - 1);
      out[i] = field[ii];
    }
    return;
  }
  if (r == 2) {
    const std::size_t n1 = ext_[1];
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t ii = bb.origin[0] + std::min(i, bb.valid[0] - 1);
      for (std::size_t j = 0; j < 4; ++j) {
        const std::size_t jj = bb.origin[1] + std::min(j, bb.valid[1] - 1);
        out[i * 4 + j] = field[ii * n1 + jj];
      }
    }
    return;
  }
  const std::size_t n1 = ext_[1];
  const std::size_t n2 = ext_[2];
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t ii = bb.origin[0] + std::min(i, bb.valid[0] - 1);
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t jj = bb.origin[1] + std::min(j, bb.valid[1] - 1);
      for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t kk = bb.origin[2] + std::min(k, bb.valid[2] - 1);
        out[(i * 4 + j) * 4 + k] = field[(ii * n1 + jj) * n2 + kk];
      }
    }
  }
}

void BlockGrid::scatter(std::span<const float> in, const Box& bb,
                        std::span<float> field) const {
  LCP_REQUIRE(in.size() == block_elements(), "scatter input size mismatch");
  const std::size_t r = rank();

  if (r == 1) {
    for (std::size_t i = 0; i < bb.valid[0]; ++i) {
      field[bb.origin[0] + i] = in[i];
    }
    return;
  }
  if (r == 2) {
    const std::size_t n1 = ext_[1];
    for (std::size_t i = 0; i < bb.valid[0]; ++i) {
      for (std::size_t j = 0; j < bb.valid[1]; ++j) {
        field[(bb.origin[0] + i) * n1 + bb.origin[1] + j] = in[i * 4 + j];
      }
    }
    return;
  }
  const std::size_t n1 = ext_[1];
  const std::size_t n2 = ext_[2];
  for (std::size_t i = 0; i < bb.valid[0]; ++i) {
    for (std::size_t j = 0; j < bb.valid[1]; ++j) {
      for (std::size_t k = 0; k < bb.valid[2]; ++k) {
        field[((bb.origin[0] + i) * n1 + bb.origin[1] + j) * n2 + bb.origin[2] +
              k] = in[(i * 4 + j) * 4 + k];
      }
    }
  }
}

}  // namespace lcp::zfp
