#include "compress/sz/huffman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "support/bitstream.hpp"
#include "support/bytestream.hpp"
#include "support/dispatch.hpp"
#include "support/rng.hpp"

#include "huffman_reference.hpp"

namespace lcp::sz {
namespace {

std::vector<std::uint32_t> decode_or_die(const std::vector<std::uint8_t>& blob) {
  auto decoded = huffman_decode(blob);
  EXPECT_TRUE(decoded.has_value()) << decoded.status().to_string();
  return decoded.has_value() ? *decoded : std::vector<std::uint32_t>{};
}

TEST(HuffmanTest, EmptyInputRoundTrips) {
  const auto blob = huffman_encode({}, 16);
  EXPECT_TRUE(decode_or_die(blob).empty());
}

TEST(HuffmanTest, SingleSymbolAlphabetRoundTrips) {
  const std::vector<std::uint32_t> symbols(100, 3);
  const auto blob = huffman_encode(symbols, 8);
  EXPECT_EQ(decode_or_die(blob), symbols);
}

TEST(HuffmanTest, TwoSymbolsRoundTrip) {
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 64; ++i) {
    symbols.push_back(i % 3 == 0 ? 1u : 0u);
  }
  const auto blob = huffman_encode(symbols, 2);
  EXPECT_EQ(decode_or_die(blob), symbols);
}

TEST(HuffmanTest, SkewedDistributionCompresses) {
  // 95% of symbols are one value: entropy ~0.3 bits -> big savings over the
  // 16-bit raw representation.
  Rng rng{1};
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 20000; ++i) {
    symbols.push_back(rng.uniform() < 0.95 ? 32768u
                                           : static_cast<std::uint32_t>(
                                                 32760 + rng.uniform_index(16)));
  }
  const auto blob = huffman_encode(symbols, 65536);
  EXPECT_EQ(decode_or_die(blob), symbols);
  EXPECT_LT(blob.size(), symbols.size());  // < 1 byte per 16-bit symbol
}

TEST(HuffmanTest, UniformRandomRoundTrips) {
  Rng rng{2};
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 5000; ++i) {
    symbols.push_back(static_cast<std::uint32_t>(rng.uniform_index(257)));
  }
  const auto blob = huffman_encode(symbols, 257);
  EXPECT_EQ(decode_or_die(blob), symbols);
}

TEST(HuffmanTest, LargeAlphabetSparseUseRoundTrips) {
  // SZ uses a 65536-symbol alphabet of which few codes appear.
  std::vector<std::uint32_t> symbols = {0, 65535, 32768, 32769, 32767, 0, 0};
  const auto blob = huffman_encode(symbols, 65536);
  EXPECT_EQ(decode_or_die(blob), symbols);
}

TEST(HuffmanTest, RandomizedRoundTripProperty) {
  Rng rng{77};
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t alphabet =
        2 + static_cast<std::uint32_t>(rng.uniform_index(1000));
    const std::size_t count = rng.uniform_index(3000);
    std::vector<std::uint32_t> symbols;
    symbols.reserve(count);
    // Zipf-ish skew to exercise variable code lengths.
    for (std::size_t i = 0; i < count; ++i) {
      const double u = rng.uniform();
      symbols.push_back(
          static_cast<std::uint32_t>(u * u * u * (alphabet - 1)));
    }
    const auto blob = huffman_encode(symbols, alphabet);
    EXPECT_EQ(decode_or_die(blob), symbols);
  }
}

TEST(HuffmanTest, CodeLengthsSatisfyKraft) {
  Rng rng{5};
  std::vector<std::uint64_t> freq(300, 0);
  for (int i = 0; i < 10000; ++i) {
    ++freq[static_cast<std::size_t>(rng.uniform() * rng.uniform() * 299)];
  }
  const auto lengths = huffman_code_lengths(freq);
  long double kraft = 0.0L;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) {
      EXPECT_GT(lengths[s], 0u);
      kraft += std::pow(2.0L, -static_cast<long double>(lengths[s]));
    } else {
      EXPECT_EQ(lengths[s], 0u);
    }
  }
  EXPECT_LE(kraft, 1.0L + 1e-12L);
}

TEST(HuffmanTest, DecodeRejectsTruncatedBlob) {
  std::vector<std::uint32_t> symbols(100, 1);
  auto blob = huffman_encode(symbols, 4);
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(huffman_decode(blob).has_value());
}

TEST(HuffmanTest, DecodeRejectsCountAboveLimit) {
  const std::vector<std::uint32_t> symbols(100, 1);
  const auto blob = huffman_encode(symbols, 4);
  EXPECT_FALSE(huffman_decode(blob, 50).has_value());
}

TEST(HuffmanTest, DecodeRejectsGarbage) {
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(huffman_decode(garbage).has_value());
}

TEST(HuffmanTest, GeometricHistogramYieldsPathTreeDepths) {
  // freq[i] = 2^i degenerates the Huffman tree into a path: the two rarest
  // symbols sit at depth n-1 and each wealthier symbol one level higher.
  // Regression for the topological-pass depth computation in build_lengths.
  constexpr std::size_t kSymbols = 24;
  std::vector<std::uint64_t> freq(kSymbols);
  for (std::size_t i = 0; i < kSymbols; ++i) {
    freq[i] = std::uint64_t{1} << i;
  }
  const auto lengths = huffman_code_lengths(freq);
  ASSERT_EQ(lengths.size(), kSymbols);
  EXPECT_EQ(lengths[0], kSymbols - 1);
  EXPECT_EQ(lengths[1], kSymbols - 1);
  for (std::size_t s = 2; s < kSymbols; ++s) {
    EXPECT_EQ(lengths[s], kSymbols - s) << "symbol " << s;
  }
}

TEST(HuffmanTest, DeepCodesBeyondDecodeTableRoundTrip) {
  // The geometric histogram produces code lengths up to 15 bits — past the
  // decoder's 12-bit window — so this round-trip exercises the long-code
  // search alongside the table fast path.
  constexpr std::size_t kSymbols = 16;
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t s = 0; s < kSymbols; ++s) {
    const std::size_t copies = std::size_t{1} << s;
    symbols.insert(symbols.end(), copies, s);
  }
  Rng rng{29};
  for (std::size_t i = symbols.size(); i > 1; --i) {
    std::swap(symbols[i - 1], symbols[rng.uniform_index(i)]);
  }
  const auto blob = huffman_encode(symbols, kSymbols);
  const auto decoded = huffman_decode(blob, symbols.size());
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, symbols);
}


// --- Sparse table build and window width properties -----------------------

using simd::ScopedSimdLevel;
using simd::SimdLevel;

constexpr std::uint32_t kSzAlphabet = 65536;

/// The dense reference build: a min-heap over every symbol of the alphabet,
/// internal nodes numbered after the alphabet, the same halving cap. The
/// encoder's sparse build must reproduce its lengths exactly.
std::vector<std::uint8_t> reference_lengths(
    const std::vector<std::uint64_t>& freq) {
  struct Node {
    std::uint64_t weight;
    std::uint32_t index;
    bool operator>(const Node& o) const {
      return weight != o.weight ? weight > o.weight : index > o.index;
    }
  };
  const auto n = static_cast<std::uint32_t>(freq.size());
  std::vector<std::uint64_t> work = freq;
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::vector<std::uint8_t> lengths(n, 0);
    std::vector<std::uint32_t> parent(n, UINT32_MAX);
    std::priority_queue<Node, std::vector<Node>, std::greater<>> heap;
    std::uint32_t last = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      if (work[s] > 0) {
        heap.push({work[s], s});
        last = s;
      }
    }
    if (heap.size() <= 1) {
      if (!heap.empty()) {
        lengths[last] = 1;
      }
      return lengths;
    }
    while (heap.size() > 1) {
      const Node a = heap.top();
      heap.pop();
      const Node b = heap.top();
      heap.pop();
      const auto node = static_cast<std::uint32_t>(parent.size());
      parent.push_back(UINT32_MAX);
      parent[a.index] = node;
      parent[b.index] = node;
      heap.push({a.weight + b.weight, node});
    }
    std::vector<unsigned> depth(parent.size(), 0);
    for (std::size_t idx = parent.size(); idx-- > 0;) {
      if (parent[idx] != UINT32_MAX) {
        depth[idx] = depth[parent[idx]] + 1;
      }
    }
    unsigned deepest = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      if (work[s] > 0) {
        lengths[s] = static_cast<std::uint8_t>(std::min(depth[s], 255u));
        deepest = std::max(deepest, depth[s]);
      }
    }
    if (deepest <= 32) {
      return lengths;
    }
    for (auto& w : work) {
      w = w > 0 ? (w + 1) / 2 : 0;
    }
  }
  unsigned bits = 1;
  while ((std::size_t{1} << bits) < freq.size()) {
    ++bits;
  }
  std::vector<std::uint8_t> lengths(n, 0);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (freq[s] > 0) {
      lengths[s] = static_cast<std::uint8_t>(bits);
    }
  }
  return lengths;
}

/// Builds a stream in the huffman_encode layout from explicit code lengths
/// (one per alphabet symbol, 0 = unused), so tests reach code lengths and
/// length tables that test-sized histograms never produce.
std::vector<std::uint8_t> encode_with_lengths(
    const std::vector<std::uint8_t>& lengths,
    const std::vector<std::uint32_t>& symbols) {
  std::vector<std::uint64_t> count(34, 0);
  for (std::uint8_t l : lengths) {
    if (l > 0) {
      ++count[l];
    }
  }
  std::vector<std::uint64_t> next(34, 0);
  std::uint64_t code = 0;
  for (unsigned l = 1; l <= 32; ++l) {
    code = (code + count[l - 1]) << 1;
    next[l] = code;
  }
  std::vector<std::uint64_t> reversed(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const unsigned len = lengths[s];
    const std::uint64_t c = len > 0 ? next[len]++ : 0;
    for (unsigned b = 0; b < len; ++b) {
      reversed[s] |= ((c >> b) & 1) << (len - 1 - b);
    }
  }
  ByteWriter out;
  out.write_u32(static_cast<std::uint32_t>(lengths.size()));
  out.write_u64(symbols.size());
  std::vector<std::pair<std::uint8_t, std::uint32_t>> runs;
  for (std::uint8_t l : lengths) {
    if (!runs.empty() && runs.back().first == l) {
      ++runs.back().second;
    } else {
      runs.emplace_back(l, 1);
    }
  }
  out.write_u32(static_cast<std::uint32_t>(runs.size()));
  for (const auto& [len, n] : runs) {
    out.write_u8(len);
    out.write_u32(n);
  }
  BitWriter bits;
  for (std::uint32_t s : symbols) {
    bits.write_bits(reversed[s], lengths[s]);
  }
  const auto payload = bits.finish();
  out.write_u64(payload.size());
  out.write_bytes(payload);
  return out.finish();
}

/// Decodes `blob` at both dispatch levels and with the reference decoder;
/// each must return `symbols`.
void expect_decodes_at_both_levels(const std::vector<std::uint8_t>& blob,
                                   const std::vector<std::uint32_t>& symbols) {
  std::vector<std::uint32_t> expected;
  const auto ref = reference::huffman_decode_into(blob, symbols.size(),
                                                  expected);
  ASSERT_TRUE(ref.is_ok()) << ref.to_string();
  EXPECT_EQ(expected, symbols);
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    ScopedSimdLevel guard{level};
    SCOPED_TRACE(simd::simd_level_name(simd::simd_level()));
    std::vector<std::uint32_t> out;
    const auto status = huffman_decode_into(blob, symbols.size(), out);
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    EXPECT_EQ(out, symbols);
  }
}

/// `blob` must be rejected at both dispatch levels and by the reference.
void expect_rejected(const std::vector<std::uint8_t>& blob) {
  std::vector<std::uint32_t> out;
  EXPECT_FALSE(reference::huffman_decode_into(blob, UINT64_MAX, out).is_ok());
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    ScopedSimdLevel guard{level};
    EXPECT_FALSE(huffman_decode(blob).has_value());
  }
}

/// `used` distinct symbols scattered over the SZ alphabet.
std::vector<std::uint32_t> scattered_symbols(std::size_t used, Rng& rng) {
  std::vector<std::uint32_t> pool(kSzAlphabet);
  for (std::uint32_t s = 0; s < kSzAlphabet; ++s) {
    pool[s] = s;
  }
  for (std::size_t i = 0; i < used; ++i) {
    std::swap(pool[i], pool[i + rng.uniform_index(kSzAlphabet - i)]);
  }
  pool.resize(used);
  return pool;
}

TEST(HuffmanTest, SparseBuildMatchesDenseReference) {
  Rng rng{101};
  for (std::size_t used : {1u, 2u, 500u, 30000u}) {
    SCOPED_TRACE("used " + std::to_string(used));
    const auto chosen = scattered_symbols(used, rng);
    // Narrow weight ranges force many equal weights, so the tie-breaks
    // between symbols and internal nodes decide the tree shape.
    for (std::uint64_t spread : {1u, 3u, 1000u}) {
      std::vector<std::uint64_t> freq(kSzAlphabet, 0);
      for (std::uint32_t s : chosen) {
        freq[s] = 1 + rng.uniform_index(spread);
      }
      EXPECT_EQ(huffman_code_lengths(freq), reference_lengths(freq));
    }
  }
  // Fibonacci weights drive the tree past 32 levels, so both builds take
  // the halving path.
  std::vector<std::uint64_t> freq(kSzAlphabet, 0);
  std::uint64_t fa = 1;
  std::uint64_t fb = 1;
  for (std::uint32_t i = 0; i < 45; ++i) {
    freq[1000 + 997 * i] = fa;
    const std::uint64_t next = fa + fb;
    fb = fa;
    fa = next;
  }
  const auto lengths = huffman_code_lengths(freq);
  EXPECT_LE(*std::max_element(lengths.begin(), lengths.end()), 32u);
  EXPECT_EQ(lengths, reference_lengths(freq));
}

TEST(HuffmanTest, SparseAlphabetsRoundTripAtBothLevels) {
  Rng rng{202};
  for (std::size_t used : {1u, 2u, 500u, 30000u}) {
    const auto chosen = scattered_symbols(used, rng);
    for (std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{1000},
          std::size_t{1} << 15, std::size_t{1} << 17}) {
      SCOPED_TRACE("used " + std::to_string(used) + " count " +
                   std::to_string(count));
      std::vector<std::uint32_t> symbols(count);
      std::vector<std::uint64_t> freq(kSzAlphabet, 0);
      for (auto& s : symbols) {
        const double u = rng.uniform();
        s = chosen[static_cast<std::size_t>(u * u * u *
                                            static_cast<double>(used))];
        ++freq[s];
      }
      const auto blob = huffman_encode(symbols, kSzAlphabet);
      // The blob is exactly the canonical layout of the reference lengths.
      EXPECT_EQ(blob, encode_with_lengths(reference_lengths(freq), symbols));
      expect_decodes_at_both_levels(blob, symbols);
    }
  }
}

TEST(HuffmanTest, SymbolsPast17BitsRoundTripAtBothLevels) {
  // Decode-table pairs hold their second symbol in a 17-bit field, so a
  // stream whose largest symbol reaches 2^17 keeps single entries. Each case spans its top
  // symbol down to symbol 0 with a skewed spread, so short and long codes
  // both occur, on either side of the pairing boundary.
  constexpr std::uint32_t kBoundary = std::uint32_t{1} << 17;
  Rng rng{505};
  for (const auto& [alphabet, top] :
       {std::pair{kBoundary, kBoundary - 1},
        std::pair{kBoundary + 1, kBoundary},
        std::pair{(std::uint32_t{1} << 20) + 3, std::uint32_t{1} << 20},
        std::pair{std::uint32_t{1} << 24, (std::uint32_t{1} << 24) - 1}}) {
    for (std::size_t count : {std::size_t{1}, std::size_t{1000},
                              std::size_t{1} << 15}) {
      SCOPED_TRACE("alphabet " + std::to_string(alphabet) + " count " +
                   std::to_string(count));
      std::vector<std::uint32_t> symbols(count);
      for (auto& s : symbols) {
        const double u = rng.uniform();
        s = top - static_cast<std::uint32_t>(u * u * u * u *
                                             static_cast<double>(top));
      }
      symbols[count / 2] = top;
      expect_decodes_at_both_levels(huffman_encode(symbols, alphabet),
                                    symbols);
    }
  }
}

TEST(HuffmanTest, CodesLongerThan24BitsEncodeCanonically) {
  // Fibonacci counts over 28 symbols give one code of every length up to
  // 27 bits, so the encoder takes its long-code path (codes past 24 bits
  // are not packed into the 32-bit table entry) for the rarest symbols.
  std::vector<std::uint64_t> freq(kSzAlphabet, 0);
  std::vector<std::uint32_t> symbols;
  std::uint64_t fa = 1;
  std::uint64_t fb = 1;
  for (std::uint32_t i = 0; i < 28; ++i) {
    const std::uint32_t s = 40000 - 1300 * i;
    freq[s] = fa;
    symbols.insert(symbols.end(), fa, s);
    const std::uint64_t next = fa + fb;
    fb = fa;
    fa = next;
  }
  Rng rng{404};
  for (std::size_t i = symbols.size(); i > 1; --i) {
    std::swap(symbols[i - 1], symbols[rng.uniform_index(i)]);
  }
  const auto lengths = reference_lengths(freq);
  ASSERT_GT(*std::max_element(lengths.begin(), lengths.end()), 24u);
  const auto blob = huffman_encode(symbols, kSzAlphabet);
  EXPECT_EQ(blob, encode_with_lengths(lengths, symbols));
  expect_decodes_at_both_levels(blob, symbols);
}

TEST(HuffmanTest, CodeLengthsUpTo32BitsDecodeAtBothLevels) {
  // One symbol of every length 1..31 plus two of length 32: a complete
  // code whose lengths straddle the 12-bit decode window and reach the
  // 32-bit cap. Symbols are drawn uniformly, so long codes are as common
  // as short ones.
  std::vector<std::uint8_t> lengths(kSzAlphabet, 0);
  for (unsigned l = 1; l <= 32; ++l) {
    lengths[1000 + 1900 * l] = static_cast<std::uint8_t>(l);
  }
  lengths[1000 + 1900 * 33] = 32;
  std::vector<std::uint32_t> alphabet_used;
  for (std::uint32_t s = 0; s < kSzAlphabet; ++s) {
    if (lengths[s] > 0) {
      alphabet_used.push_back(s);
    }
  }
  // A three-symbol code (lengths 1, 2, 2) caps the window at twice its
  // longest code.
  std::vector<std::uint8_t> short_lengths(kSzAlphabet, 0);
  short_lengths[7] = 2;
  short_lengths[32768] = 1;
  short_lengths[65535] = 2;
  const std::vector<std::uint32_t> short_used = {7, 32768, 65535};

  Rng rng{303};
  // Every count holds at least as many symbols as the codes list (a
  // genuine table never lists an unused symbol).
  for (std::size_t count : {std::size_t{100}, std::size_t{1} << 12,
                            std::size_t{1} << 15, std::size_t{1} << 17}) {
    SCOPED_TRACE("count " + std::to_string(count));
    std::vector<std::uint32_t> symbols(count);
    for (auto& s : symbols) {
      s = alphabet_used[rng.uniform_index(alphabet_used.size())];
    }
    expect_decodes_at_both_levels(encode_with_lengths(lengths, symbols),
                                  symbols);
    for (auto& s : symbols) {
      s = short_used[rng.uniform_index(short_used.size())];
    }
    expect_decodes_at_both_levels(encode_with_lengths(short_lengths, symbols),
                                  symbols);
  }
}

TEST(HuffmanTest, DecodeRejectsOverSubscribedLengths) {
  // Three codes of length 1 cannot form a prefix code; the encoder never
  // writes such a table, and the decoder must not build one.
  std::vector<std::uint8_t> lengths(16, 0);
  lengths[2] = 1;
  lengths[5] = 1;
  lengths[9] = 1;
  const std::vector<std::uint32_t> symbols = {2, 5, 2, 2};
  const auto blob = encode_with_lengths(lengths, symbols);
  expect_rejected(blob);
}

TEST(HuffmanTest, DecodeRejectsMoreCodesThanSymbols) {
  // Every symbol the length table lists occurs at least once in a genuine
  // stream; a table of three codes over a two-symbol stream is corrupt.
  std::vector<std::uint8_t> lengths(16, 0);
  lengths[2] = 1;
  lengths[5] = 2;
  lengths[9] = 2;
  const auto blob = encode_with_lengths(lengths, {2, 5});
  expect_rejected(blob);
}

TEST(HuffmanTest, DecodeRejectsCountBeyondPayloadBits) {
  // Every code spends at least one bit, so a header claiming more symbols
  // than payload bits is corrupt — rejected before sizing the output.
  const std::vector<std::uint32_t> symbols(64, 1);
  auto blob = huffman_encode(symbols, 4);
  const std::uint64_t claimed = 1ULL << 40;
  for (int b = 0; b < 8; ++b) {
    blob[4 + b] = static_cast<std::uint8_t>(claimed >> (8 * b));
  }
  expect_rejected(blob);
}

}  // namespace
}  // namespace lcp::sz
