#pragma once
// Canonical Huffman coder for SZ quantization codes.
//
// Encoding: build code lengths over the symbols the input uses (Huffman
// tree construction with a 32-bit length cap enforced by frequency
// flattening), derive canonical codes, serialize the length table with RLE,
// then emit the symbol stream. Decoding parses the RLE runs of used
// symbols, rebuilds the canonical tables from them and decodes through a
// 12-bit lookup table that resolves up to two symbols per probe, resolving
// codes longer than the table from the canonical tables. One plain C++
// decoder serves every dispatch level and alphabet size. Table work
// follows the symbols used, not the alphabet size.

#include <cstdint>
#include <span>
#include <vector>

#include "support/bitstream.hpp"
#include "support/status.hpp"

namespace lcp::sz {

/// Encodes `symbols` (values < alphabet_size) into a self-contained blob.
[[nodiscard]] std::vector<std::uint8_t> huffman_encode(
    std::span<const std::uint32_t> symbols, std::uint32_t alphabet_size);

/// Decodes a blob from huffman_encode. `expected_count` guards against
/// corrupt streams claiming absurd sizes.
[[nodiscard]] lcp::Expected<std::vector<std::uint32_t>> huffman_decode(
    std::span<const std::uint8_t> blob, std::uint64_t max_count = UINT64_MAX);

/// huffman_decode into a caller-owned vector (cleared and resized), so hot
/// paths can reuse pooled storage instead of allocating the full symbol
/// buffer on every call.
[[nodiscard]] Status huffman_decode_into(std::span<const std::uint8_t> blob,
                                         std::uint64_t max_count,
                                         std::vector<std::uint32_t>& out);

/// Computes canonical code lengths for `freq` (internal; exposed for tests).
/// Lengths are capped at 32 bits. Symbols with zero frequency get length 0.
[[nodiscard]] std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freq);

}  // namespace lcp::sz
