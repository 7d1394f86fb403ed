#pragma once
// Per-call embedded bit-plane coder: the test oracle that the register
// coder in compress/zfp/embedded_coder.cpp mirrors bit for bit. Every bit
// goes through BitWriter/BitReader calls: one write per verbatim prefix,
// flag and unary run, one read_bit per flag and a read_unary per run, and
// the fixed-rate twins read their unary runs bit by bit against the
// budget. Slow, but each step is the format's definition, including what
// a truncated or corrupt stream decodes to.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "support/bitstream.hpp"
#include "support/status.hpp"

namespace lcp::zfp::reference {

/// Bit `plane` of each coefficient in [begin, begin+count), packed
/// LSB-first into one word. count <= 64.
inline std::uint64_t gather_plane(std::span<const std::uint64_t> coeffs,
                                  unsigned plane, std::size_t begin,
                                  std::size_t count) {
  std::uint64_t word = 0;
  for (std::size_t t = 0; t < count; ++t) {
    word |= ((coeffs[begin + t] >> plane) & 1u) << t;
  }
  return word;
}

/// Writes `count` zero bits in word-sized batches.
inline void write_zeros(BitWriter& writer, std::uint64_t count) {
  while (count >= 64) {
    writer.write_bits(0, 64);
    count -= 64;
  }
  if (count > 0) {
    writer.write_bits(0, static_cast<unsigned>(count));
  }
}

/// Skips `count` bits in word-sized batches (still flags overflow).
inline void skip_bits(BitReader& reader, std::uint64_t count) {
  while (count >= 64) {
    (void)reader.read_bits(64);
    count -= 64;
  }
  if (count > 0) {
    (void)reader.read_bits(static_cast<unsigned>(count));
  }
}

/// Encodes planes [plane_lo, plane_hi] of `coeffs` (visit order).
inline void encode_block_planes(std::span<const std::uint64_t> coeffs,
                                unsigned plane_hi, unsigned plane_lo,
                                BitWriter& writer) {
  LCP_REQUIRE(plane_hi < 64 && plane_lo <= plane_hi, "invalid plane range");
  const std::size_t n = coeffs.size();
  std::size_t sig = 0;  // coefficients [0, sig) are already significant

  for (unsigned plane = plane_hi + 1; plane-- > plane_lo;) {
    for (std::size_t i = 0; i < sig;) {
      const auto chunk =
          static_cast<unsigned>(std::min<std::size_t>(64, sig - i));
      writer.write_bits(gather_plane(coeffs, plane, i, chunk), chunk);
      i += chunk;
    }
    std::size_t scan = sig;
    while (scan < n) {
      std::size_t j = n;
      for (std::size_t base = scan; base < n; base += 64) {
        const std::size_t chunk = std::min<std::size_t>(64, n - base);
        const std::uint64_t word = gather_plane(coeffs, plane, base, chunk);
        if (word != 0) {
          j = base + static_cast<unsigned>(std::countr_zero(word));
          break;
        }
      }
      if (j == n) {
        writer.write_bit(false);  // no more significance in this plane
        break;
      }
      writer.write_bit(true);
      writer.write_unary(static_cast<unsigned>(j - scan));
      sig = j + 1;
      scan = sig;
    }
  }
}

/// Decodes planes written by encode_block_planes into `coeffs` (zeroed by
/// the caller). Returns false if the stream ended prematurely.
[[nodiscard]] inline bool decode_block_planes(std::span<std::uint64_t> coeffs,
                                              unsigned plane_hi,
                                              unsigned plane_lo,
                                              BitReader& reader) {
  LCP_REQUIRE(plane_hi < 64 && plane_lo <= plane_hi, "invalid plane range");
  const std::size_t n = coeffs.size();
  std::size_t sig = 0;

  for (unsigned plane = plane_hi + 1; plane-- > plane_lo;) {
    for (std::size_t i = 0; i < sig;) {
      const auto chunk =
          static_cast<unsigned>(std::min<std::size_t>(64, sig - i));
      std::uint64_t word = reader.read_bits(chunk);
      while (word != 0) {
        const auto t = static_cast<unsigned>(std::countr_zero(word));
        coeffs[i + t] |= std::uint64_t{1} << plane;
        word &= word - 1;
      }
      i += chunk;
    }
    std::size_t scan = sig;
    while (scan < n) {
      if (!reader.read_bit()) {
        break;  // plane has no further significance
      }
      const unsigned offset = reader.read_unary();
      const std::size_t j = scan + offset;
      if (j >= n) {
        return false;  // corrupt stream
      }
      coeffs[j] |= std::uint64_t{1} << plane;
      sig = j + 1;
      scan = sig;
    }
    if (reader.overflowed()) {
      return false;
    }
  }
  return true;
}

/// Fixed-rate twin: planes [0, plane_hi] in exactly `budget_bits`.
inline void encode_block_planes_capped(std::span<const std::uint64_t> coeffs,
                                       unsigned plane_hi,
                                       std::uint64_t budget_bits,
                                       BitWriter& writer) {
  LCP_REQUIRE(plane_hi < 64, "invalid plane");
  const std::size_t n = coeffs.size();
  const std::uint64_t start = writer.bit_count();
  std::uint64_t used = 0;
  auto remaining = [&] { return budget_bits - used; };
  auto put_word = [&](std::uint64_t word, unsigned bits) {
    writer.write_bits(word, bits);
    used += bits;
  };

  std::size_t sig = 0;
  for (unsigned plane = plane_hi + 1; plane-- > 0 && remaining() > 0;) {
    for (std::size_t i = 0; i < sig && remaining() > 0;) {
      const auto chunk = static_cast<unsigned>(std::min<std::uint64_t>(
          {64, static_cast<std::uint64_t>(sig - i), remaining()}));
      put_word(gather_plane(coeffs, plane, i, chunk), chunk);
      i += chunk;
    }
    std::size_t scan = sig;
    while (scan < n && remaining() > 0) {
      std::size_t j = n;
      for (std::size_t base = scan; base < n; base += 64) {
        const std::size_t chunk = std::min<std::size_t>(64, n - base);
        const std::uint64_t word = gather_plane(coeffs, plane, base, chunk);
        if (word != 0) {
          j = base + static_cast<unsigned>(std::countr_zero(word));
          break;
        }
      }
      if (j == n) {
        put_word(0, 1);
        break;
      }
      // A (flag, unary) token that does not fit the budget becomes zero
      // padding; the decoder reads the same zeros and never completes it.
      const std::uint64_t token = 2 + (j - scan);
      if (token > remaining()) {
        const std::uint64_t pad = remaining();
        write_zeros(writer, pad);
        used += pad;
        break;
      }
      put_word(1, 1);
      const auto run = static_cast<std::uint64_t>(j - scan);
      write_zeros(writer, run);
      used += run;
      put_word(1, 1);
      sig = j + 1;
      scan = sig;
    }
  }
  write_zeros(writer, budget_bits - (writer.bit_count() - start));
}

/// Fixed-rate decode: consumes exactly `budget_bits` unless the stream
/// ends first.
[[nodiscard]] inline bool decode_block_planes_capped(
    std::span<std::uint64_t> coeffs, unsigned plane_hi,
    std::uint64_t budget_bits, BitReader& reader) {
  LCP_REQUIRE(plane_hi < 64, "invalid plane");
  const std::size_t n = coeffs.size();
  const std::uint64_t start = reader.bit_position();
  std::uint64_t used = 0;
  auto remaining = [&] { return budget_bits - used; };
  auto take = [&]() {
    ++used;
    return reader.read_bit();
  };

  std::size_t sig = 0;
  for (unsigned plane = plane_hi + 1; plane-- > 0 && remaining() > 0;) {
    for (std::size_t i = 0; i < sig && remaining() > 0;) {
      const auto chunk = static_cast<unsigned>(std::min<std::uint64_t>(
          {64, static_cast<std::uint64_t>(sig - i), remaining()}));
      std::uint64_t word = reader.read_bits(chunk);
      used += chunk;
      while (word != 0) {
        const auto t = static_cast<unsigned>(std::countr_zero(word));
        coeffs[i + t] |= std::uint64_t{1} << plane;
        word &= word - 1;
      }
      i += chunk;
    }
    std::size_t scan = sig;
    while (scan < n && remaining() > 0) {
      if (!take()) {
        break;  // no more significance, or the start of budget padding
      }
      std::size_t j = scan;
      bool terminated = false;
      while (remaining() > 0) {
        if (take()) {
          terminated = true;
          break;
        }
        ++j;
        if (j >= n) {
          return false;  // corrupt: offset past the block
        }
      }
      if (!terminated) {
        break;  // budget exhausted mid-token (encoder padded): stop
      }
      coeffs[j] |= std::uint64_t{1} << plane;
      sig = j + 1;
      scan = sig;
    }
    if (reader.overflowed()) {
      return false;
    }
  }
  skip_bits(reader, budget_bits - (reader.bit_position() - start));
  return !reader.overflowed();
}

}  // namespace lcp::zfp::reference
