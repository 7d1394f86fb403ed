#include "compress/zfp/embedded_coder.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "support/status.hpp"

namespace lcp::zfp {
namespace {

/// Bits of a reader window, BitReader::peek_fixed's widest: one unaligned
/// 64-bit load less up to 7 bits of cursor alignment. Bits past the end of
/// the stream read as zeros, so a one found in a window is a stream bit.
constexpr unsigned kWindowBits = 57;

/// Low `bits` bits set; bits in [0, 64].
constexpr std::uint64_t low_mask(unsigned bits) noexcept {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// One block's code in a register: plane words and tokens are ORed into a
/// block-local 64-bit accumulator, and only whole words reach the writer.
class BlockBits {
 public:
  explicit BlockBits(BitWriter& writer) noexcept : writer_(writer) {}

  /// Appends the low `count` bits of `value`, which must have no bit set at
  /// or above `count`; count in [0, 64].
  void put(std::uint64_t value, unsigned count) {
    acc_ |= value << fill_;
    fill_ += count;
    if (fill_ >= 64) {
      writer_.write_bits(acc_, 64);
      fill_ -= 64;
      // What did not fit in the spilled word; nothing when it filled it
      // exactly (the shift is then in (0, 64)).
      acc_ = fill_ == 0 ? 0 : value >> (count - fill_);
    }
  }

  void put_zeros(std::uint64_t count) {
    for (; count >= 64; count -= 64) {
      put(0, 64);
    }
    put(0, static_cast<unsigned>(count));
  }

  /// Hands the partial word to the writer.
  void flush() { writer_.write_bits(acc_, fill_); }

 private:
  BitWriter& writer_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;  // < 64 between calls
};

/// Transposes a 64x64 bit matrix in place, bit t of a[p] trading places
/// with bit p of a[t]: six rounds of block swaps.
void transpose64(std::uint64_t* a) noexcept {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// The plane words of coeffs[0, n): bit t of word p is bit p of coeffs[t].
/// A 64-coefficient block gets every word from one transpose; smaller
/// blocks build each word when asked, by an inline loop that N (4 or 16,
/// else 0 for a run-time n) unrolls. No dispatch.
template <std::size_t N>
class PlaneWords {
 public:
  PlaneWords(const std::uint64_t* coeffs, std::size_t n) noexcept
      : coeffs_(coeffs), n_(n) {
    if constexpr (N == 64) {
      std::copy_n(coeffs, 64, words_.begin());
      transpose64(words_.data());
    }
  }

  [[nodiscard]] std::uint64_t operator[](unsigned plane) const noexcept {
    if constexpr (N == 64) {
      return words_[plane];
    } else {
      std::uint64_t word = 0;
      for (std::size_t t = 0; t < (N != 0 ? N : n_); ++t) {
        word |= ((coeffs_[t] >> plane) & 1u) << t;
      }
      return word;
    }
  }

 private:
  const std::uint64_t* coeffs_;
  std::size_t n_;
  std::array<std::uint64_t, N == 64 ? 64 : 0> words_;
};

/// The token that makes the coefficient `run` places past the scan
/// position significant: a one flag, `run` zeros, a terminating one.
void put_token(BlockBits& bits, unsigned run) {
  if (run + 2 <= 64) {
    bits.put(1 | std::uint64_t{2} << run, run + 2);
    return;
  }
  bits.put(1, 1);  // run == 63: 65 bits, in two writes
  bits.put(std::uint64_t{1} << run, run + 1);
}

/// 4-coefficient blocks once every coefficient is significant: each plane
/// is its 4 verbatim bits, so up to 16 planes travel as one word whose
/// nibble i is plane `top - i`. spread4 moves bit j of a coefficient's
/// plane slice to bit 4j; reversing the nibble order puts the top plane
/// first.
constexpr unsigned kPlanesPerWord = 16;

constexpr std::uint64_t spread4(std::uint64_t x) noexcept {
  x = (x | x << 24) & 0x000000FF000000FFULL;
  x = (x | x << 12) & 0x000F000F000F000FULL;
  x = (x | x << 6) & 0x0303030303030303ULL;
  return (x | x << 3) & 0x1111111111111111ULL;
}

/// Inverse of spread4: bit 4j to bit j.
constexpr std::uint64_t compact4(std::uint64_t x) noexcept {
  x &= 0x1111111111111111ULL;
  x = (x | x >> 3) & 0x0303030303030303ULL;
  x = (x | x >> 6) & 0x000F000F000F000FULL;
  x = (x | x >> 12) & 0x000000FF000000FFULL;
  return (x | x >> 24) & 0xFFFFULL;
}

constexpr std::uint64_t reverse_nibbles(std::uint64_t x) noexcept {
  x = __builtin_bswap64(x);
  return (x >> 4 & 0x0F0F0F0F0F0F0F0FULL) | (x & 0x0F0F0F0F0F0F0F0FULL) << 4;
}

/// Planes [top + 1 - m, top] of 4 significant coefficients, top first;
/// m in [1, 16].
std::uint64_t significant_planes(const std::uint64_t* coeffs, unsigned top,
                                 unsigned m) noexcept {
  const unsigned low = top + 1 - m;
  std::uint64_t word = 0;
  for (unsigned t = 0; t < 4; ++t) {
    word |= spread4((coeffs[t] >> low) & low_mask(m)) << t;
  }
  return reverse_nibbles(word) >> (64 - 4 * m);
}

/// Inverse of significant_planes: ORs the planes into the coefficients.
void deposit_significant_planes(std::uint64_t* coeffs, std::uint64_t word,
                                unsigned top, unsigned m) noexcept {
  const unsigned low = top + 1 - m;
  word = reverse_nibbles(word << (64 - 4 * m));
  for (unsigned t = 0; t < 4; ++t) {
    coeffs[t] |= compact4(word >> t) << low;
  }
}

/// How many of planes [plane_lo, plane] the 4-coefficient batch takes: at
/// most a word's worth, and for a fixed-rate block only whole planes that
/// fit the budget.
template <bool kCapped>
unsigned batch_planes(unsigned plane, unsigned plane_lo,
                      std::uint64_t left) noexcept {
  auto m = std::min(plane - plane_lo + 1, kPlanesPerWord);
  if constexpr (kCapped) {
    m = static_cast<unsigned>(std::min<std::uint64_t>(m, left / 4));
  }
  return m;
}

/// Planes [plane_lo, plane_hi] of coeffs[0, n). kCapped spends exactly
/// `budget` bits: a token that does not fit becomes zero padding, and the
/// block is padded to the budget.
template <std::size_t N, bool kCapped>
void encode_planes(const std::uint64_t* coeffs, std::size_t count,
                   unsigned plane_hi, unsigned plane_lo, std::uint64_t budget,
                   BitWriter& writer) {
  const std::size_t n = N != 0 ? N : count;
  const PlaneWords<N> planes{coeffs, n};
  BlockBits bits{writer};
  std::uint64_t left = budget;  // fixed-rate bits still to spend
  std::size_t sig = 0;          // coefficients [0, sig) are significant
  for (unsigned plane = plane_hi + 1; plane-- > plane_lo;) {
    if (kCapped && left == 0) {
      break;
    }
    if constexpr (N == 4) {
      if (sig == 4) {
        const unsigned m = batch_planes<kCapped>(plane, plane_lo, left);
        if (m > 0) {
          bits.put(significant_planes(coeffs, plane, m), 4 * m);
          left -= kCapped ? 4 * m : 0;
          plane -= m - 1;
          continue;
        }
      }
    }
    const std::uint64_t word = planes[plane];
    auto verbatim = static_cast<unsigned>(sig);
    if constexpr (kCapped) {
      verbatim = static_cast<unsigned>(std::min<std::uint64_t>(sig, left));
      left -= verbatim;
    }
    bits.put(word & low_mask(verbatim), verbatim);
    for (std::size_t scan = sig; scan < n;) {
      if (kCapped && left == 0) {
        break;
      }
      const std::uint64_t rest = word >> scan;
      if (rest == 0) {
        bits.put(0, 1);  // no further significance in this plane
        if constexpr (kCapped) {
          --left;
        }
        break;
      }
      const auto run = static_cast<unsigned>(std::countr_zero(rest));
      if constexpr (kCapped) {
        if (run + 2 > left) {
          // The decoder reads the same zeros and never completes a token.
          bits.put_zeros(left);
          left = 0;
          break;
        }
        left -= run + 2;
      }
      put_token(bits, run);
      scan = sig = scan + run + 1;
    }
  }
  if constexpr (kCapped) {
    bits.put_zeros(left);
  }
  bits.flush();
}

/// A register window over the reader: `bits_` is the stream at the
/// reader's cursor, of which the low `used_` bits are parsed but not yet
/// consumed. Refilled only when a parse needs more than it holds.
class Window {
 public:
  explicit Window(BitReader& in) noexcept
      : in_(in), bits_(in.peek_fixed<kWindowBits>()) {}

  /// Makes `bits` (at most kWindowBits) unparsed bits visible.
  void ensure(unsigned bits) noexcept {
    if (used_ + bits > kWindowBits) {
      commit();
    }
  }

  /// Consumes the parsed bits from the reader and peeks afresh.
  void commit() noexcept {
    in_.skip_bits(used_);
    used_ = 0;
    bits_ = in_.peek_fixed<kWindowBits>();
  }

  /// The unparsed bits; ensure() them first.
  [[nodiscard]] std::uint64_t peek() const noexcept { return bits_ >> used_; }

  /// Unparsed bits of peek() that are stream bits (or past-the-end zeros).
  [[nodiscard]] unsigned known() const noexcept { return kWindowBits - used_; }

  /// True once the parsed bits reach past the end of the stream: what
  /// consuming them would mark, without consuming them.
  [[nodiscard]] bool overflowed() const noexcept {
    return in_.overflowed() || used_ > in_.bits_remaining();
  }

  void skip(unsigned bits) noexcept { used_ += bits; }

  /// Reads `bits` bits; bits in [0, 64].
  [[nodiscard]] std::uint64_t take(unsigned bits) noexcept {
    std::uint64_t value = 0;
    unsigned got = 0;
    if (bits > kWindowBits) {
      ensure(32);
      value = peek() & low_mask(32);
      used_ += 32;
      got = 32;
    }
    ensure(bits - got);
    value |= (peek() & low_mask(bits - got)) << got;
    used_ += bits - got;
    return value;
  }

 private:
  BitReader& in_;
  std::uint64_t bits_;
  unsigned used_ = 0;  // at most 64; at most kWindowBits after ensure()
};

/// Where decoded bits go: straight into the coefficients, or for a
/// 64-coefficient block into plane words that one transpose hands to the
/// coefficients when the block ends (finish()).
template <std::size_t N>
class CoeffBits {
 public:
  explicit CoeffBits(std::uint64_t* coeffs) noexcept : coeffs_(coeffs) {}

  /// Sets bit `plane` of coefficient t for every bit t set in `word`.
  void deposit(std::uint64_t word, unsigned plane) noexcept {
    if constexpr (N == 64) {
      words_[plane] |= word;
    } else if constexpr (N != 0) {
      for (std::size_t t = 0; t < N; ++t) {
        coeffs_[t] |= ((word >> t) & 1u) << plane;
      }
    } else {
      for (; word != 0; word &= word - 1) {
        coeffs_[std::countr_zero(word)] |= std::uint64_t{1} << plane;
      }
    }
  }

  void set(std::size_t t, unsigned plane) noexcept {
    if constexpr (N == 64) {
      words_[plane] |= std::uint64_t{1} << t;
    } else {
      coeffs_[t] |= std::uint64_t{1} << plane;
    }
  }

  /// ORs everything decoded into the coefficients; returns `ok`.
  bool finish(bool ok) noexcept {
    if constexpr (N == 64) {
      transpose64(words_.data());
      for (std::size_t t = 0; t < 64; ++t) {
        coeffs_[t] |= words_[t];
      }
    }
    return ok;
  }

 private:
  std::uint64_t* coeffs_;
  std::array<std::uint64_t, N == 64 ? 64 : 0> words_{};
};

/// A unary run whose terminating one is not in the window (a run longer
/// than it, in a 64-coefficient block, or the end of the stream), counted
/// from the reader's cursor as BitReader::read_unary counts it: a run that
/// reaches the end stops there and marks overflow. Stops counting once
/// `limit` zeros are seen, which the caller rejects anyway.
unsigned long_run(BitReader& in, unsigned limit) noexcept {
  unsigned zeros = 0;
  while (zeros < limit) {
    if (in.bits_remaining() == 0) {
      in.skip_bits(1);  // reading past the end marks overflow
      break;
    }
    const std::uint64_t word = in.peek_fixed<kWindowBits>();
    if (word != 0) {
      const auto tz = static_cast<unsigned>(std::countr_zero(word));
      in.skip_bits(tz + 1);
      return zeros + tz;
    }
    const auto step = static_cast<unsigned>(
        std::min<std::uint64_t>(kWindowBits, in.bits_remaining()));
    in.skip_bits(step);
    zeros += step;
  }
  return zeros;
}

/// How a fixed-rate unary run ends, read against the bit budget.
enum class CappedRun { kTerminated, kBudgetSpent, kPastBlock };

/// The fixed-rate run from the reader's cursor, read the way the per-bit
/// decoder reads it: bits past the end are zeros (and mark overflow), the
/// run is rejected once `need` zeros name a coefficient past the block,
/// and it ends unterminated when `left` runs out.
CappedRun capped_long_run(BitReader& in, unsigned need, std::uint64_t& left,
                          unsigned& run) noexcept {
  unsigned zeros = 0;
  for (;;) {
    if (left == 0) {
      return CappedRun::kBudgetSpent;
    }
    const auto avail =
        static_cast<unsigned>(std::min<std::uint64_t>(kWindowBits, left));
    const std::uint64_t word = in.peek_fixed<kWindowBits>() & low_mask(avail);
    if (word != 0) {
      const auto tz = static_cast<unsigned>(std::countr_zero(word));
      if (zeros + tz >= need) {
        return CappedRun::kPastBlock;
      }
      in.skip_bits(tz + 1);
      left -= tz + 1;
      run = zeros + tz;
      return CappedRun::kTerminated;
    }
    if (zeros + avail >= need) {
      return CappedRun::kPastBlock;
    }
    in.skip_bits(avail);
    left -= avail;
    zeros += avail;
  }
}

/// Inverse of encode_planes, with the per-bit decoder's verdicts: a run
/// naming a coefficient past the block returns false at once, and a plane
/// that read past the end returns false once it is decoded (bits past the
/// end read as zeros).
template <std::size_t N, bool kCapped>
bool decode_planes(std::uint64_t* coeffs, std::size_t count,
                   unsigned plane_hi, unsigned plane_lo, std::uint64_t budget,
                   BitReader& in) {
  const std::size_t n = N != 0 ? N : count;
  const std::uint64_t start = in.bit_position();
  CoeffBits<N> out{coeffs};
  Window win{in};
  std::uint64_t left = budget;
  std::size_t sig = 0;
  for (unsigned plane = plane_hi + 1; plane-- > plane_lo;) {
    if (kCapped && left == 0) {
      break;
    }
    if constexpr (N == 4) {
      if (sig == 4) {
        const unsigned m = batch_planes<kCapped>(plane, plane_lo, left);
        if (m > 0) {
          deposit_significant_planes(coeffs, win.take(4 * m), plane, m);
          left -= kCapped ? 4 * m : 0;
          plane -= m - 1;
          // Bits past the end read as zeros, so one overflow check per
          // batch leaves the coefficients a check per plane would.
          if (win.overflowed()) {
            win.commit();  // marks the overflow
            return out.finish(false);
          }
          continue;
        }
      }
    }
    auto verbatim = static_cast<unsigned>(sig);
    if constexpr (kCapped) {
      verbatim = static_cast<unsigned>(std::min<std::uint64_t>(sig, left));
      left -= verbatim;
    }
    out.deposit(win.take(verbatim), plane);
    for (std::size_t scan = sig; scan < n;) {
      if (kCapped && left == 0) {
        break;
      }
      // Zeros in a run that would name a coefficient past the block.
      const auto need = static_cast<unsigned>(n - scan);
      win.ensure(std::min(need + 2, kWindowBits));
      const std::uint64_t word = win.peek();
      win.skip(1);
      if constexpr (kCapped) {
        --left;
      }
      if ((word & 1) == 0) {
        break;  // no further significance (or fixed-rate padding)
      }
      const std::uint64_t rest = word >> 1;
      unsigned run = 0;
      if constexpr (kCapped) {
        if (rest != 0 || win.known() >= std::min<std::uint64_t>(need, left)) {
          // The window settles the run: countr_zero(rest) zeros, or with
          // no one in sight at least known(), which decides it here.
          const std::uint64_t zeros =
              rest != 0 ? static_cast<unsigned>(std::countr_zero(rest))
                        : win.known();
          if (std::min(zeros, left) >= need) {
            return out.finish(false);
          }
          if (zeros >= left) {
            win.skip(static_cast<unsigned>(left));  // budget spent mid-token
            left = 0;
            break;
          }
          run = static_cast<unsigned>(zeros);
          win.skip(run + 1);
          left -= run + 1;
        } else {
          win.commit();
          const CappedRun end = capped_long_run(in, need, left, run);
          win.commit();
          if (end == CappedRun::kPastBlock) {
            return out.finish(false);
          }
          if (end == CappedRun::kBudgetSpent) {
            break;
          }
        }
      } else {
        if (rest != 0) {
          run = static_cast<unsigned>(std::countr_zero(rest));
          win.skip(run + 1);
        } else {
          win.commit();
          run = long_run(in, need);
          win.commit();
        }
        if (run >= need) {
          return out.finish(false);  // corrupt: offset past the block
        }
      }
      out.set(scan + run, plane);
      scan = sig = scan + run + 1;
    }
    if (win.overflowed()) {
      win.commit();  // marks the overflow
      return out.finish(false);
    }
  }
  win.commit();
  if constexpr (kCapped) {
    in.skip_bits(budget - (in.bit_position() - start));  // the block's padding
    return out.finish(!in.overflowed());
  }
  return out.finish(true);
}

template <bool kCapped>
void encode_sized(std::span<const std::uint64_t> coeffs, unsigned plane_hi,
                  unsigned plane_lo, std::uint64_t budget, BitWriter& writer) {
  switch (coeffs.size()) {
    case 4:
      return encode_planes<4, kCapped>(coeffs.data(), 4, plane_hi, plane_lo,
                                       budget, writer);
    case 16:
      return encode_planes<16, kCapped>(coeffs.data(), 16, plane_hi, plane_lo,
                                        budget, writer);
    case 64:
      return encode_planes<64, kCapped>(coeffs.data(), 64, plane_hi, plane_lo,
                                        budget, writer);
    default:
      return encode_planes<0, kCapped>(coeffs.data(), coeffs.size(), plane_hi,
                                       plane_lo, budget, writer);
  }
}

template <bool kCapped>
bool decode_sized(std::span<std::uint64_t> coeffs, unsigned plane_hi,
                  unsigned plane_lo, std::uint64_t budget, BitReader& reader) {
  switch (coeffs.size()) {
    case 4:
      return decode_planes<4, kCapped>(coeffs.data(), 4, plane_hi, plane_lo,
                                       budget, reader);
    case 16:
      return decode_planes<16, kCapped>(coeffs.data(), 16, plane_hi, plane_lo,
                                        budget, reader);
    case 64:
      return decode_planes<64, kCapped>(coeffs.data(), 64, plane_hi, plane_lo,
                                        budget, reader);
    default:
      return decode_planes<0, kCapped>(coeffs.data(), coeffs.size(), plane_hi,
                                       plane_lo, budget, reader);
  }
}

}  // namespace

void encode_block_planes(std::span<const std::uint64_t> coeffs,
                         unsigned plane_hi, unsigned plane_lo,
                         BitWriter& writer) {
  LCP_REQUIRE(plane_hi < 64 && plane_lo <= plane_hi, "invalid plane range");
  LCP_REQUIRE(coeffs.size() <= 64, "a block holds at most 64 coefficients");
  encode_sized<false>(coeffs, plane_hi, plane_lo, 0, writer);
}

bool decode_block_planes(std::span<std::uint64_t> coeffs, unsigned plane_hi,
                         unsigned plane_lo, BitReader& reader) {
  LCP_REQUIRE(plane_hi < 64 && plane_lo <= plane_hi, "invalid plane range");
  LCP_REQUIRE(coeffs.size() <= 64, "a block holds at most 64 coefficients");
  return decode_sized<false>(coeffs, plane_hi, plane_lo, 0, reader);
}

void encode_block_planes_capped(std::span<const std::uint64_t> coeffs,
                                unsigned plane_hi, std::uint64_t budget_bits,
                                BitWriter& writer) {
  LCP_REQUIRE(plane_hi < 64, "invalid plane");
  LCP_REQUIRE(coeffs.size() <= 64, "a block holds at most 64 coefficients");
  encode_sized<true>(coeffs, plane_hi, 0, budget_bits, writer);
}

bool decode_block_planes_capped(std::span<std::uint64_t> coeffs,
                                unsigned plane_hi, std::uint64_t budget_bits,
                                BitReader& reader) {
  LCP_REQUIRE(plane_hi < 64, "invalid plane");
  LCP_REQUIRE(coeffs.size() <= 64, "a block holds at most 64 coefficients");
  return decode_sized<true>(coeffs, plane_hi, 0, budget_bits, reader);
}

}  // namespace lcp::zfp
