// Differential suite: the register plane coder (compress/zfp/
// embedded_coder.cpp) against the per-call oracle (zfp_reference_coder.hpp).
// Random blocks of 4, 16 and 64 coefficients (and off-size counts), random
// plane ranges and fixed-rate budgets, at random stream alignments, must
// give identical bits. Truncated, bit-flipped and random-garbage streams
// must give the oracle's verdict and the oracle's coefficients, which pins
// what the window parser does on hostile input.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "compress/zfp/embedded_coder.hpp"
#include "support/bitstream.hpp"
#include "support/rng.hpp"
#include "zfp_reference_coder.hpp"

namespace lcp::zfp {
namespace {

std::uint64_t low_mask(unsigned bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// One block's coding parameters. Fixed-rate cases (budget > 0) code
/// planes [0, hi] in exactly `budget` bits.
struct BlockCase {
  std::vector<std::uint64_t> coeffs;
  unsigned hi = 0;
  unsigned lo = 0;
  std::uint64_t budget = 0;
  unsigned prefix_bits = 0;  // stream bits ahead of the block
};

enum class Shape { kSkewed, kUniform, kSparseTail };

std::vector<std::uint64_t> make_coeffs(Rng& rng, std::size_t n, Shape shape) {
  std::vector<std::uint64_t> coeffs(n, 0);
  const unsigned top = 1 + static_cast<unsigned>(rng.uniform_index(62));
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case Shape::kSkewed: {
        // Magnitudes fall along the visit order, like transform output.
        const unsigned decay =
            static_cast<unsigned>((i * top) / (n + 1)) +
            static_cast<unsigned>(rng.uniform_index(4));
        const unsigned width = top > decay ? top - decay : 0;
        coeffs[i] = width == 0 ? 0 : rng.next_u64() & low_mask(width);
        break;
      }
      case Shape::kUniform:
        coeffs[i] = rng.next_u64() & low_mask(top);
        break;
      case Shape::kSparseTail:
        // Long unary runs: a few significant coefficients late in the order.
        if (rng.uniform() < 2.0 / static_cast<double>(n)) {
          coeffs[i] = rng.next_u64() & low_mask(top);
        }
        break;
    }
  }
  return coeffs;
}

BlockCase make_case(Rng& rng, std::size_t n, bool capped) {
  BlockCase c;
  const auto shape = static_cast<Shape>(rng.uniform_index(3));
  c.coeffs = make_coeffs(rng, n, shape);
  std::uint64_t all = 0;
  for (auto v : c.coeffs) {
    all |= v;
  }
  const auto width =
      all == 0 ? 1U : static_cast<unsigned>(std::bit_width(all));
  // Mostly the real top plane, sometimes planes above it.
  c.hi = std::min(63U, width - 1 + static_cast<unsigned>(rng.uniform_index(3)));
  if (capped) {
    // From budgets that end inside the first token to ones that cover
    // every plane with padding to spare.
    const std::uint64_t span = (c.hi + 1) * (3 * n + 1);
    c.budget = 1 + rng.uniform_index(span + 64);
  } else {
    c.lo = static_cast<unsigned>(rng.uniform_index(c.hi + 1));
  }
  c.prefix_bits = static_cast<unsigned>(rng.uniform_index(64));
  return c;
}

/// A prefix pattern for `bits` bits, so blocks start at every alignment.
std::uint64_t prefix_value(unsigned bits) {
  return 0x9E3779B97F4A7C15ULL & low_mask(bits);
}

std::vector<std::uint8_t> encode_reference(
    const std::vector<BlockCase>& cases) {
  BitWriter w;
  for (const auto& c : cases) {
    w.write_bits(prefix_value(c.prefix_bits), c.prefix_bits);
    if (c.budget > 0) {
      reference::encode_block_planes_capped(c.coeffs, c.hi, c.budget, w);
    } else {
      reference::encode_block_planes(c.coeffs, c.hi, c.lo, w);
    }
  }
  return w.finish();
}

std::vector<std::uint8_t> encode_register(const std::vector<BlockCase>& cases) {
  BitWriter w;
  for (const auto& c : cases) {
    w.write_bits(prefix_value(c.prefix_bits), c.prefix_bits);
    const std::uint64_t before = w.bit_count();
    if (c.budget > 0) {
      encode_block_planes_capped(c.coeffs, c.hi, c.budget, w);
      EXPECT_EQ(w.bit_count() - before, c.budget);
    } else {
      encode_block_planes(c.coeffs, c.hi, c.lo, w);
    }
  }
  return w.finish();
}

/// Decodes `cases` from `bytes` with both decoders, block by block, and
/// requires the same verdict and coefficients; stops after the first
/// rejected block. Returns the number of blocks both accepted.
std::size_t expect_same_decode(const std::vector<std::uint8_t>& bytes,
                               const std::vector<BlockCase>& cases) {
  BitReader ref{bytes};
  BitReader reg{bytes};
  std::size_t accepted = 0;
  for (const auto& c : cases) {
    (void)ref.read_bits(c.prefix_bits);
    (void)reg.read_bits(c.prefix_bits);
    std::vector<std::uint64_t> want(c.coeffs.size(), 0);
    std::vector<std::uint64_t> got(c.coeffs.size(), 0);
    bool ok_ref = false;
    bool ok_reg = false;
    if (c.budget > 0) {
      ok_ref = reference::decode_block_planes_capped(want, c.hi, c.budget, ref);
      ok_reg = decode_block_planes_capped(got, c.hi, c.budget, reg);
    } else {
      ok_ref = reference::decode_block_planes(want, c.hi, c.lo, ref);
      ok_reg = decode_block_planes(got, c.hi, c.lo, reg);
    }
    EXPECT_EQ(ok_reg, ok_ref) << "block " << accepted;
    EXPECT_EQ(got, want) << "block " << accepted;
    if (!ok_ref || !ok_reg) {
      break;
    }
    // Accepted blocks must leave both cursors in the same place, or the
    // next block would decode differently.
    EXPECT_EQ(reg.bit_position(), ref.bit_position()) << "block " << accepted;
    EXPECT_EQ(reg.overflowed(), ref.overflowed()) << "block " << accepted;
    ++accepted;
  }
  return accepted;
}

std::vector<BlockCase> make_stream(Rng& rng, std::size_t n, std::size_t blocks,
                                   bool mixed_modes) {
  std::vector<BlockCase> cases;
  for (std::size_t b = 0; b < blocks; ++b) {
    const bool capped = mixed_modes && rng.uniform() < 0.5;
    cases.push_back(make_case(rng, n, capped));
  }
  return cases;
}

constexpr std::size_t kSizes[] = {4, 16, 64, 1, 7, 50};

TEST(ZfpCoderDifferentialTest, RandomBlocksGiveIdenticalBits) {
  Rng rng{181};
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    for (int trial = 0; trial < 60; ++trial) {
      const auto cases = make_stream(rng, n, 6, true);
      const auto want = encode_reference(cases);
      const auto got = encode_register(cases);
      ASSERT_EQ(got, want) << "trial " << trial;
      EXPECT_EQ(expect_same_decode(want, cases), cases.size());
    }
  }
}

TEST(ZfpCoderDifferentialTest, FixedRateBudgetsGiveIdenticalBits) {
  // Every budget from 1 bit up, so the cut lands on every token boundary
  // and inside every token of a block.
  Rng rng{182};
  for (std::size_t n : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    SCOPED_TRACE(n);
    for (int trial = 0; trial < 4; ++trial) {
      BlockCase base = make_case(rng, n, true);
      const std::uint64_t full = (base.hi + 1) * (3 * n + 1) + 8;
      for (std::uint64_t budget = 1; budget <= full; ++budget) {
        BlockCase c = base;
        c.budget = budget;
        const std::vector<BlockCase> cases{c, c};
        const auto want = encode_reference(cases);
        ASSERT_EQ(encode_register(cases), want) << "budget " << budget;
        EXPECT_EQ(expect_same_decode(want, cases), cases.size());
      }
    }
  }
}

TEST(ZfpCoderDifferentialTest, LongestRunsGiveIdenticalBits) {
  // A lone coefficient at the end of a 64-block: a 63-zero run (a 65-bit
  // token) on the first plane, longer than the decoder's window.
  for (unsigned plane : {0U, 17U, 63U}) {
    BlockCase c;
    c.coeffs.assign(64, 0);
    c.coeffs[63] = std::uint64_t{1} << plane;
    c.hi = plane;
    c.prefix_bits = plane % 11;
    BlockCase capped = c;
    capped.budget = 70;
    const std::vector<BlockCase> cases{c, capped, c};
    const auto want = encode_reference(cases);
    ASSERT_EQ(encode_register(cases), want) << plane;
    EXPECT_EQ(expect_same_decode(want, cases), cases.size());
  }
}

TEST(ZfpCoderDifferentialTest, RunsAtEveryLengthBudgetAndAlignment) {
  // Hand-built streams at a 64-coefficient block's first token: a one
  // flag, `zeros` zeros, a one, then other bits. Sweeping the run across
  // the decoder's window edge and the block end, the fixed-rate budget
  // across the run's end, and the start across every byte alignment
  // reaches each way a run can end: terminated, budget spent, past the
  // block, or at the end of the stream.
  Rng rng{186};
  for (unsigned prefix = 0; prefix < 8; ++prefix) {
    for (unsigned zeros = 48; zeros <= 70; ++zeros) {
      BitWriter w;
      w.write_bits(prefix_value(prefix), prefix);
      w.write_bits(1, 1);
      for (unsigned z = 0; z < zeros; ++z) {
        w.write_bits(0, 1);
      }
      w.write_bits(1, 1);
      w.write_bits(rng.next_u64(), 64);
      const auto full = w.finish();
      for (std::uint64_t budget = 0; budget <= zeros + 4; ++budget) {
        BlockCase c;
        c.coeffs.assign(64, 0);
        c.hi = 3;
        c.budget = budget;  // 0: the uncapped coder
        c.prefix_bits = prefix;
        // Whole, and cut inside the run, where it then meets the end.
        expect_same_decode(full, {c});
        const std::vector<std::uint8_t> cut(
            full.begin(), full.begin() + (prefix + 1 + zeros / 2) / 8);
        expect_same_decode(cut, {c});
      }
    }
  }
}

TEST(ZfpCoderDifferentialTest, TruncatedStreamsMatchOracleVerdicts) {
  Rng rng{183};
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    for (int trial = 0; trial < 8; ++trial) {
      const auto cases = make_stream(rng, n, 4, true);
      const auto full = encode_reference(cases);
      for (std::size_t keep = 0; keep < full.size(); ++keep) {
        const std::vector<std::uint8_t> cut(full.begin(),
                                            full.begin() + keep);
        expect_same_decode(cut, cases);
      }
    }
  }
}

TEST(ZfpCoderDifferentialTest, BitFlippedStreamsMatchOracleVerdicts) {
  Rng rng{184};
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    for (int trial = 0; trial < 200; ++trial) {
      const auto cases = make_stream(rng, n, 4, true);
      auto bytes = encode_reference(cases);
      const std::size_t flips = 1 + rng.uniform_index(3);
      for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
        const std::size_t bit = rng.uniform_index(bytes.size() * 8);
        bytes[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
      }
      expect_same_decode(bytes, cases);
    }
  }
}

TEST(ZfpCoderDifferentialTest, GarbageStreamsMatchOracleVerdicts) {
  // Dense garbage has short runs; sparse garbage (about one set bit in 96)
  // has runs past the window and past the block, and ends mid-run.
  Rng rng{185};
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    for (int trial = 0; trial < 300; ++trial) {
      const auto cases = make_stream(rng, n, 3, true);
      std::vector<std::uint8_t> bytes(rng.uniform_index(96));
      const bool sparse = trial % 2 == 1;
      for (auto& b : bytes) {
        if (!sparse) {
          b = static_cast<std::uint8_t>(rng.next_u64());
          continue;
        }
        b = 0;
        for (unsigned bit = 0; bit < 8; ++bit) {
          if (rng.uniform() < 1.0 / 96.0) {
            b = static_cast<std::uint8_t>(b | (1U << bit));
          }
        }
      }
      expect_same_decode(bytes, cases);
    }
  }
}

}  // namespace
}  // namespace lcp::zfp
