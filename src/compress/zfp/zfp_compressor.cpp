#include "compress/zfp/zfp_compressor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "compress/common/container.hpp"
#include "compress/zfp/block.hpp"
#include "compress/zfp/embedded_coder.hpp"
#include "compress/zfp/negabinary.hpp"
#include "compress/zfp/transform.hpp"
#include "support/bytestream.hpp"

namespace lcp::zfp {
namespace {

constexpr std::uint8_t kPayloadVersion = 1;

/// Fixed-point precision: samples scale to |i| <= 2^kQ; the 3-axis lifting
/// transform grows magnitudes by at most 8x, staying well inside int64.
constexpr int kQ = 58;

/// Guard bits absorbing the inverse transform's worst-case amplification of
/// truncation error (~1.5 per lifting step over 6 steps, ~2^4.5 total, plus
/// rounding; 2^6 is a proven-safe budget — see the analysis in this file's
/// accompanying tests).
constexpr int kGuardBits = 6;

/// 2^e as a double, exactly (std::ldexp(1.0, e)); e in [-1022, 1023].
constexpr double pow2(int e) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
}

/// std::ilogb of a positive finite float, read from its bits.
int float_ilogb(float m) noexcept {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(m) & 0x7FFFFFFFU;
  const auto biased = static_cast<int>(bits >> 23);
  if (biased != 0) {
    return biased - 127;
  }
  return 31 - std::countl_zero(bits) - 149;  // subnormal: bits * 2^-149
}

/// Exponent e with |v| < 2^e for the block maximum magnitude `m` (m > 0).
int block_exponent(float m) noexcept { return float_ilogb(m) + 1; }

/// std::llround for |x| < 2^63: rounds half away from zero. Exact: the
/// fraction x - trunc(x) is representable, and x is an integer from 2^52.
std::int64_t round_to_int(double x) noexcept {
  const auto t = static_cast<std::int64_t>(x);
  const double frac = x - static_cast<double>(t);
  return t + static_cast<std::int64_t>(frac >= 0.5) -
         static_cast<std::int64_t>(frac <= -0.5);
}

/// The fixed-accuracy tolerance with its binary exponent, taken once per
/// field.
struct Tolerance {
  double eb;
  int eb_exp;  // std::ilogb(eb)
};

/// Analytic lower bound for the lowest bit plane that must be kept for
/// tolerance `eb` in a block with exponent `emax`: the worst-case inverse-
/// transform amplification (kGuardBits) makes it provably safe, but it is
/// pessimistic by several planes for typical data. May be negative (keep
/// everything) or > 63 (keep none).
int min_plane(const Tolerance& tol, int emax) noexcept {
  return tol.eb_exp + kQ - emax - kGuardBits;
}

/// When the fixed-point grid itself is coarser than the tolerance the block
/// cannot be coded losslessly enough; it is stored verbatim.
bool needs_verbatim(const Tolerance& tol, int emax) noexcept {
  return tol.eb_exp <= emax - (kQ + 2);
}

/// Fixed-size scratch of one 4^Rank block.
template <std::size_t Rank>
struct Block {
  static constexpr std::size_t kN = std::size_t{1} << (2 * Rank);
  std::array<float, kN> samples{};
  std::array<std::int64_t, kN> ints{};           // fixed point, transformed
  std::array<std::int64_t, kN> pre_transform{};  // fixed point
  std::array<std::uint64_t, kN> nb{};            // negabinary, visit order
};

float max_magnitude(std::span<const float> samples) noexcept {
  float maxabs = 0.0F;
  for (float v : samples) {
    maxabs = std::max(maxabs, std::fabs(v));
  }
  return maxabs;
}

/// Block-floating-point promotion at exponent `emax`, lifting transform
/// and negabinary recoding into visit order. Returns the OR of the
/// coefficients.
template <std::size_t Rank>
std::uint64_t to_coefficients(Block<Rank>& blk, const std::uint16_t* order,
                              int emax) noexcept {
  const double scale = pow2(kQ - emax);
  for (std::size_t i = 0; i < Block<Rank>::kN; ++i) {
    blk.ints[i] = round_to_int(static_cast<double>(blk.samples[i]) * scale);
  }
  blk.pre_transform = blk.ints;
  forward_transform(blk.ints, Rank);
  std::uint64_t all = 0;
  for (std::size_t i = 0; i < Block<Rank>::kN; ++i) {
    blk.nb[i] = to_negabinary(blk.ints[order[i]]);
    all |= blk.nb[i];
  }
  return all;
}

/// Inverse of to_coefficients, into blk.samples.
template <std::size_t Rank>
void from_coefficients(Block<Rank>& blk, const std::uint16_t* order,
                       int emax) noexcept {
  for (std::size_t i = 0; i < Block<Rank>::kN; ++i) {
    blk.ints[order[i]] = from_negabinary(blk.nb[i]);
  }
  inverse_transform(blk.ints, Rank);
  const double inv_scale = pow2(emax - kQ);
  for (std::size_t i = 0; i < Block<Rank>::kN; ++i) {
    blk.samples[i] =
        static_cast<float>(static_cast<double>(blk.ints[i]) * inv_scale);
  }
}

/// Exact int-domain reconstruction error when planes below `p_lo` are
/// dropped: truncate, inverse-transform, compare against the pre-transform
/// integers. One inverse transform per candidate — cheap next to entropy
/// coding, and it turns the worst-case guard analysis into a per-block
/// measurement.
template <std::size_t Rank>
std::int64_t truncation_error(const Block<Rank>& blk,
                              const std::uint16_t* order, int p_lo) noexcept {
  std::uint64_t mask = ~std::uint64_t{0};
  if (p_lo >= 64) {
    mask = 0;
  } else if (p_lo > 0) {
    mask = ~((std::uint64_t{1} << static_cast<unsigned>(p_lo)) - 1);
  }
  std::array<std::int64_t, Block<Rank>::kN> probe;
  for (std::size_t i = 0; i < Block<Rank>::kN; ++i) {
    probe[order[i]] = from_negabinary(blk.nb[i] & mask);
  }
  inverse_transform(probe, Rank);
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < Block<Rank>::kN; ++i) {
    worst = std::max<std::int64_t>(
        worst, std::llabs(probe[i] - blk.pre_transform[i]));
  }
  return worst;
}

/// Chooses the highest cutoff plane whose verified truncation error fits
/// the integer-domain budget. Starts one plane below the ideal cutoff and
/// walks down toward the analytic worst-case plane (which needs no
/// verification by construction).
template <std::size_t Rank>
int choose_min_plane(const Block<Rank>& blk, const std::uint16_t* order,
                     const Tolerance& tol, int emax) noexcept {
  const double eb_int = tol.eb * pow2(kQ - emax);
  // Budget: leave room for the fixed-point conversion error (1 int unit)
  // and the float32 rounding of the final reconstruction (half an ulp at
  // the block's magnitude, 2^(emax-24) in float = 2^(kQ-24) int units).
  constexpr double kFloatUlpReserve = pow2(kQ - 24);
  const double budget_f = eb_int - kFloatUlpReserve - 1.0;
  if (budget_f < 0.0) {
    // Encode everything: the reconstruction is then within one conversion
    // rounding of the original float, which casts back to it exactly.
    return 0;
  }
  const auto budget = static_cast<std::int64_t>(budget_f);
  const int analytic = std::clamp(min_plane(tol, emax), 0, 64);
  const int ideal = std::clamp(min_plane(tol, emax) + kGuardBits - 1, 0, 64);
  for (int p = ideal; p > analytic; --p) {
    if (truncation_error(blk, order, p) <= budget) {
      return p;
    }
  }
  return analytic;
}

/// Fixed-accuracy block layout: a nonzero flag, then either 32-bit
/// verbatim samples or a 9-bit biased exponent, 7-bit top plane (64 = no
/// planes) and 6-bit cutoff plane ahead of the embedded planes.
template <std::size_t Rank>
void encode_block(Block<Rank>& blk, const std::uint16_t* order,
                  const Tolerance& tol, BitWriter& writer) {
  const float maxabs = max_magnitude(blk.samples);
  if (maxabs == 0.0F) {
    writer.write_bits(0, 1);  // zero block
    return;
  }
  const int emax = block_exponent(maxabs);
  if (needs_verbatim(tol, emax)) {
    writer.write_bits(0b11, 2);  // nonzero, verbatim
    for (float v : blk.samples) {
      writer.write_bits(std::bit_cast<std::uint32_t>(v), 32);
    }
    return;
  }
  const std::uint64_t all = to_coefficients(blk, order, emax);
  const int p_lo = choose_min_plane(blk, order, tol, emax);
  const int p_hi = all == 0 ? -1 : std::bit_width(all) - 1;
  // Both plane bounds travel with the block: p_hi is only recomputable by
  // the encoder, and p_lo is chosen adaptively per block. 64 means "no
  // planes encoded".
  const int stored_hi = p_hi < p_lo ? 64 : p_hi;
  const int stored_lo = std::min(p_lo, 63);
  writer.write_bits(0b01 | static_cast<std::uint64_t>(emax + 256) << 2 |
                        static_cast<std::uint64_t>(stored_hi) << 11 |
                        static_cast<std::uint64_t>(stored_lo) << 18,
                    24);  // nonzero, coded, exponent, plane bounds
  if (stored_hi == 64) {
    return;  // nothing above the cutoff: coefficients decode as zero
  }
  encode_block_planes(blk.nb, static_cast<unsigned>(stored_hi),
                      static_cast<unsigned>(stored_lo), writer);
}

template <std::size_t Rank>
bool decode_block(Block<Rank>& blk, const std::uint16_t* order,
                  BitReader& reader) {
  const std::uint64_t head = reader.peek_fixed<24>();
  if ((head & 1) == 0) {
    reader.skip_bits(1);
    blk.samples.fill(0.0F);
    return !reader.overflowed();
  }
  if ((head & 2) != 0) {  // verbatim
    reader.skip_bits(2);
    for (float& v : blk.samples) {
      v = std::bit_cast<float>(
          static_cast<std::uint32_t>(reader.read_bits(32)));
    }
    return !reader.overflowed();
  }
  reader.skip_bits(24);
  const int emax = static_cast<int>((head >> 2) & 0x1FF) - 256;
  const int stored_hi = static_cast<int>((head >> 11) & 0x7F);
  const int p_lo = static_cast<int>((head >> 18) & 0x3F);
  if (reader.overflowed() || stored_hi > 64) {
    return false;
  }
  blk.nb.fill(0);
  if (stored_hi != 64) {
    if (p_lo > stored_hi) {
      return false;  // inconsistent plane bounds: corrupt stream
    }
    if (!decode_block_planes(blk.nb, static_cast<unsigned>(stored_hi),
                             static_cast<unsigned>(p_lo), reader)) {
      return false;
    }
  }
  from_coefficients(blk, order, emax);
  return true;
}

/// Fixed-rate block layout: 9 bits of biased exponent (0 = all-zero
/// block), 7 bits of top plane, then exactly budget-16 bits of capped
/// embedded planes. Every block costs precisely `budget_bits`.
template <std::size_t Rank>
void encode_block_fixed_rate(Block<Rank>& blk, const std::uint16_t* order,
                             std::uint64_t budget_bits, BitWriter& writer) {
  const std::uint64_t start = writer.bit_count();
  const float maxabs = max_magnitude(blk.samples);
  bool zero = maxabs == 0.0F;
  if (!zero) {
    const int emax = block_exponent(maxabs);
    const std::uint64_t all = to_coefficients(blk, order, emax);
    if (all == 0) {
      zero = true;
    } else {
      const int p_hi = std::bit_width(all) - 1;
      writer.write_bits(static_cast<std::uint64_t>(emax + 256) |
                            static_cast<std::uint64_t>(p_hi) << 9,
                        16);
      encode_block_planes_capped(blk.nb, static_cast<unsigned>(p_hi),
                                 budget_bits - 16, writer);
    }
  }
  if (zero) {
    writer.write_bits(0, 9);
  }
  // Pad to the block boundary a word at a time (the capped planes already
  // end there).
  std::uint64_t pad = budget_bits - (writer.bit_count() - start);
  for (; pad >= 64; pad -= 64) {
    writer.write_bits(0, 64);
  }
  writer.write_bits(0, static_cast<unsigned>(pad));
}

template <std::size_t Rank>
bool decode_block_fixed_rate(Block<Rank>& blk, const std::uint16_t* order,
                             std::uint64_t budget_bits, BitReader& reader) {
  const std::uint64_t start = reader.bit_position();
  const int emax_raw = static_cast<int>(reader.read_bits(9));
  bool ok = true;
  if (emax_raw == 0) {
    blk.samples.fill(0.0F);
  } else {
    const int p_hi = static_cast<int>(reader.read_bits(7));
    if (p_hi > 63) {
      return false;
    }
    blk.nb.fill(0);
    ok = decode_block_planes_capped(blk.nb, static_cast<unsigned>(p_hi),
                                    budget_bits - 16, reader);
    from_coefficients(blk, order, emax_raw - 256);
  }
  // Skip to the fixed block boundary.
  const std::uint64_t used = reader.bit_position() - start;
  if (used < budget_bits && !reader.overflowed()) {
    reader.skip_bits(budget_bits - used);
  }
  return ok && !reader.overflowed();
}

/// Bits per block under a fixed-rate `bound` (headers included), floored
/// at the 17 bits a non-trivial block needs; 0 in fixed-accuracy mode.
Expected<std::uint64_t> block_bits_for(const compress::ErrorBound& bound,
                                       std::size_t block_elements) {
  if (bound.mode != compress::BoundMode::kFixedRate) {
    return std::uint64_t{0};
  }
  const double rate = bound.value;
  if (!(rate > 0.0) || rate > 64.0) {
    return Status::invalid_argument("fixed rate must be in (0, 64] bits/value");
  }
  const auto bits = static_cast<std::uint64_t>(
      std::llround(rate * static_cast<double>(block_elements)));
  if (bits < 17) {
    return Status::invalid_argument(
        "fixed rate too low: a block needs at least 17 bits");
  }
  return bits;
}

/// Codes every block of the field in index order, walking the grid by
/// carried coordinates.
template <std::size_t Rank>
void encode_blocks(const BlockGrid& grid, std::span<const float> values,
                   const compress::ErrorBound& bound, std::uint64_t block_bits,
                   BitWriter& writer) {
  if (grid.block_count() == 0) {
    return;
  }
  const std::uint16_t* order = coefficient_order(Rank).data();
  const Tolerance tol{bound.value, std::ilogb(bound.value)};
  const bool fixed_rate = bound.mode == compress::BoundMode::kFixedRate;
  Block<Rank> blk;
  BlockGrid::Box box = grid.box(0);
  for (std::size_t b = 0; b < grid.block_count(); ++b, grid.next(box)) {
    grid.gather(values, box, blk.samples);
    if (fixed_rate) {
      encode_block_fixed_rate(blk, order, block_bits, writer);
    } else {
      encode_block(blk, order, tol, writer);
    }
  }
}

/// Inverse of encode_blocks; false on the first block the stream cannot
/// decode.
template <std::size_t Rank>
bool decode_blocks(const BlockGrid& grid, const compress::ErrorBound& bound,
                   std::uint64_t block_bits, BitReader& reader,
                   std::span<float> values) {
  if (grid.block_count() == 0) {
    return true;
  }
  const std::uint16_t* order = coefficient_order(Rank).data();
  const bool fixed_rate = bound.mode == compress::BoundMode::kFixedRate;
  Block<Rank> blk;
  BlockGrid::Box box = grid.box(0);
  for (std::size_t b = 0; b < grid.block_count(); ++b, grid.next(box)) {
    const bool ok =
        fixed_rate ? decode_block_fixed_rate(blk, order, block_bits, reader)
                   : decode_block(blk, order, reader);
    if (!ok) {
      return false;
    }
    grid.scatter(blk.samples, box, values);
  }
  return true;
}

}  // namespace

Expected<std::vector<std::uint8_t>> ZfpCompressor::encode(
    std::span<const float> values, const data::Dims& dims,
    const compress::ErrorBound& bound) const {
  if (bound.mode != compress::BoundMode::kAbsolute &&
      bound.mode != compress::BoundMode::kFixedRate) {
    return Status::unsupported(
        "zfp supports absolute (fixed-accuracy) and fixed-rate bounds only");
  }
  if (bound.value <= 0.0) {
    return Status::invalid_argument("error bound must be positive");
  }
  LCP_RETURN_IF_ERROR(compress::validate_finite(values));

  const BlockGrid grid{effective_extents(dims)};
  const auto block_bits = block_bits_for(bound, grid.block_elements());
  if (!block_bits) {
    return block_bits.status();
  }
  const auto encode_rank = grid.rank() == 1   ? &encode_blocks<1>
                           : grid.rank() == 2 ? &encode_blocks<2>
                                              : &encode_blocks<3>;
  BitWriter writer;
  encode_rank(grid, values, bound, *block_bits, writer);
  auto bits = writer.finish();

  ByteWriter payload;
  payload.write_u8(kPayloadVersion);
  payload.write_u8(static_cast<std::uint8_t>(kQ));
  payload.write_u8(static_cast<std::uint8_t>(kGuardBits));
  payload.write_u64(bits.size());
  payload.write_bytes(bits);
  return payload.finish();
}

Status ZfpCompressor::decode(const compress::ContainerView& view,
                             std::span<float> out) const {
  ByteReader r{view.payload};
  auto version = r.read_u8();
  if (!version || *version != kPayloadVersion) {
    return Status::unsupported("unknown zfp payload version");
  }
  auto q = r.read_u8();
  auto guard = r.read_u8();
  if (!q || !guard || *q != kQ || *guard != kGuardBits) {
    return Status::unsupported("zfp payload parameters mismatch");
  }
  auto bit_size = r.read_u64();
  if (!bit_size) {
    return bit_size.status().with_context("zfp bit stream size");
  }
  auto bits = r.read_bytes(static_cast<std::size_t>(*bit_size));
  if (!bits) {
    return bits.status().with_context("zfp bit stream");
  }

  const BlockGrid grid{effective_extents(view.dims)};
  const auto block_bits = block_bits_for(view.bound, grid.block_elements());
  if (!block_bits) {
    return block_bits.status();
  }
  const auto decode_rank = grid.rank() == 1   ? &decode_blocks<1>
                           : grid.rank() == 2 ? &decode_blocks<2>
                                              : &decode_blocks<3>;
  BitReader reader{*bits};
  if (!decode_rank(grid, view.bound, *block_bits, reader, out)) {
    return Status::corrupt_data("zfp: bit stream truncated or invalid");
  }
  return Status::ok();
}

}  // namespace lcp::zfp
