#pragma once
// zlite: the byte-oriented LZ77 lossless backend applied to SZ's entropy-
// coded stream (the role zstd/gzip plays in upstream SZ).
//
// Format: a sequence of tokens. Each token is
//   literal_len (varint) | literal bytes | match_len (varint) | dist (varint)
// A match_len of 0 terminates (final literals already emitted). Matches are
// found greedily via a 4-byte hash table of previous positions.

#include <cstdint>
#include <span>
#include <vector>

#include "support/status.hpp"

namespace lcp::sz {

/// Compresses arbitrary bytes. Never fails; incompressible data grows by a
/// small bounded overhead.
[[nodiscard]] std::vector<std::uint8_t> zlite_compress(
    std::span<const std::uint8_t> input);

/// Decompresses a zlite stream. `max_output` bounds memory for corrupt input.
[[nodiscard]] Expected<std::vector<std::uint8_t>> zlite_decompress(
    std::span<const std::uint8_t> input, std::uint64_t max_output = UINT64_MAX);

/// zlite_decompress into `out`, which is cleared first and keeps its
/// capacity, so a pooled buffer that is large enough is not reallocated.
[[nodiscard]] Status zlite_decompress_into(std::span<const std::uint8_t> input,
                                           std::vector<std::uint8_t>& out,
                                           std::uint64_t max_output = UINT64_MAX);

}  // namespace lcp::sz
