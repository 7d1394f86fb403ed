#pragma once
// Single-symbol canonical Huffman decoder: the test oracle that
// compress/sz/huffman.cpp's multi-symbol decoder must match symbol for
// symbol and verdict for verdict. It parses the same blob layout
// (alphabet, count, RLE length runs, payload), resolves codes of up to 11
// bits with one table probe and longer ones with a bit-serial canonical
// walk, and checks the reader for overflow after every symbol. Slow, but
// each step is the format's definition, including what a truncated or
// corrupt stream decodes to.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "support/bitstream.hpp"
#include "support/bytestream.hpp"
#include "support/status.hpp"

namespace lcp::sz::reference {

inline constexpr unsigned kMaxCodeLength = 32;

/// Codes up to this many bits resolve with one table lookup.
inline constexpr unsigned kDecodeTableBits = 11;

/// Per-length canonical tables, indexed by code length.
using LengthTable = std::array<std::uint64_t, kMaxCodeLength + 2>;

/// Reverses the low `len` bits of `v`, for len in [1, 32].
inline std::uint64_t reverse_bits(std::uint64_t v, unsigned len) {
  std::uint64_t r = 0;
  for (unsigned b = 0; b < len; ++b) {
    r |= ((v >> b) & 1) << (len - 1 - b);
  }
  return r;
}

/// Decodes a huffman_encode blob into `out` (cleared first).
inline Status huffman_decode_into(std::span<const std::uint8_t> blob,
                                  std::uint64_t max_count,
                                  std::vector<std::uint32_t>& out) {
  out.clear();
  ByteReader r{blob};
  auto alphabet = r.read_u32();
  if (!alphabet || *alphabet == 0) {
    return Status::corrupt_data("huffman: bad alphabet size");
  }
  auto count = r.read_u64();
  if (!count) {
    return count.status();
  }
  if (*count > max_count) {
    return Status::corrupt_data("huffman: symbol count exceeds expectation");
  }
  auto runs = r.read_u32();
  if (!runs) {
    return runs.status();
  }
  struct CodeRun {
    std::uint32_t first_symbol;
    std::uint32_t count;
    std::uint8_t length;
  };
  std::vector<CodeRun> code_runs;
  LengthTable count_by_len{};
  std::uint64_t covered = 0;
  for (std::uint32_t run = 0; run < *runs; ++run) {
    auto len = r.read_u8();
    auto n = r.read_u32();
    if (!len || !n) {
      return Status::corrupt_data("huffman: truncated length table");
    }
    if (*len > kMaxCodeLength) {
      return Status::corrupt_data("huffman: code length too large");
    }
    if (covered + *n > *alphabet) {
      return Status::corrupt_data("huffman: length table overflow");
    }
    if (*len > 0 && *n > 0) {
      code_runs.push_back({static_cast<std::uint32_t>(covered), *n, *len});
      count_by_len[*len] += *n;
    }
    covered += *n;
  }
  if (covered != *alphabet) {
    return Status::corrupt_data("huffman: length table size mismatch");
  }

  // Canonical tables: first code and first rank of each length. Kraft is
  // checked at every length.
  LengthTable first_code{};
  LengthTable first_index{};
  std::uint64_t code = 0;
  std::uint64_t index = 0;
  unsigned max_len = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    code = (code + count_by_len[l - 1]) << 1;
    if (code + count_by_len[l] > (std::uint64_t{1} << l)) {
      return Status::corrupt_data("huffman: over-subscribed code lengths");
    }
    first_code[l] = code;
    first_index[l] = index;
    index += count_by_len[l];
    if (count_by_len[l] > 0) {
      max_len = l;
    }
  }

  auto payload_size = r.read_u64();
  if (!payload_size) {
    return payload_size.status();
  }
  auto payload = r.read_bytes(static_cast<std::size_t>(*payload_size));
  if (!payload) {
    return payload.status();
  }
  if (*count > static_cast<std::uint64_t>(payload->size()) * 8) {
    return Status::corrupt_data("huffman: symbol count exceeds payload");
  }
  if (index > *count) {
    return Status::corrupt_data("huffman: more coded symbols than symbols");
  }

  // Used symbols ordered by (length, symbol).
  std::vector<std::uint32_t> symbols_by_rank(static_cast<std::size_t>(index));
  {
    LengthTable cursor = first_index;
    for (const CodeRun& run : code_runs) {
      auto rank = static_cast<std::size_t>(cursor[run.length]);
      for (std::uint32_t k = 0; k < run.count; ++k) {
        symbols_by_rank[rank + k] = run.first_symbol + k;
      }
      cursor[run.length] += run.count;
    }
  }

  // Single-symbol entries over the next kDecodeTableBits stream bits. The
  // stream carries codes MSB-first but the reader returns the first stream
  // bit in the LSB, so entries are indexed by the reversed code with every
  // possible fill of the remaining high bits. Entry: symbol in bits 0..31,
  // code length in bits 34..39; 0 = no code of at most the table width.
  std::vector<std::uint64_t> table(std::size_t{1} << kDecodeTableBits, 0);
  for (unsigned len = 1; len <= std::min(kDecodeTableBits, max_len); ++len) {
    const std::size_t fills = std::size_t{1} << (kDecodeTableBits - len);
    for (std::uint64_t k = 0; k < count_by_len[len]; ++k) {
      const std::uint64_t base = reverse_bits(first_code[len] + k, len);
      const std::uint64_t entry =
          std::uint64_t{symbols_by_rank[first_index[len] + k]} |
          (std::uint64_t{len} << 34);
      for (std::size_t fill = 0; fill < fills; ++fill) {
        table[base | (fill << len)] = entry;
      }
    }
  }

  BitReader bits{*payload};
  out.reserve(static_cast<std::size_t>(*count));

  // Codes past the table width take the canonical walk one bit at a time.
  const auto decode_slow = [&](std::uint32_t& symbol) {
    std::uint64_t acc = 0;
    unsigned len = 0;
    symbol = UINT32_MAX;
    while (len < max_len) {
      acc = (acc << 1) | (bits.read_bit() ? 1u : 0u);
      ++len;
      if (count_by_len[len] == 0) {
        continue;
      }
      const std::uint64_t offset = acc - first_code[len];
      if (acc >= first_code[len] && offset < count_by_len[len]) {
        symbol = symbols_by_rank[first_index[len] + offset];
        break;
      }
    }
    return symbol != UINT32_MAX && !bits.overflowed();
  };

  for (std::uint64_t i = 0; i < *count; ++i) {
    const std::uint64_t entry = table[bits.peek_bits(kDecodeTableBits)];
    if (entry != 0) {
      bits.skip_bits((entry >> 34) & 63);
      if (bits.overflowed()) {
        return Status::corrupt_data("huffman: invalid code in stream");
      }
      out.push_back(static_cast<std::uint32_t>(entry));
      continue;
    }
    std::uint32_t symbol = UINT32_MAX;
    if (!decode_slow(symbol)) {
      return Status::corrupt_data("huffman: invalid code in stream");
    }
    out.push_back(symbol);
  }
  return Status::ok();
}

}  // namespace lcp::sz::reference
