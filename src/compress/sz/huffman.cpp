#include "compress/sz/huffman.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "support/buffer_pool.hpp"
#include "support/bytestream.hpp"

namespace lcp::sz {
namespace {

constexpr unsigned kMaxCodeLength = 32;

/// Encoder table entries are 32-bit: a code of at most this many bits is
/// packed above its length in the entry itself; a longer one (only deep
/// trees of very skewed histograms reach past 24 bits) is kept aside and
/// the entry holds its index there.
constexpr unsigned kInlineCodeBits = 24;

/// Decode window width. Its 2^12 x 8 B table fits L1 and costs little to
/// build, and codes past it resolve with a few compares (long_code below).
/// On a 4-vCPU Xeon VM this beat 13-, 14- and 16-bit windows at every
/// stream size measured, from a 32 Ki-symbol checkpoint slab to a 2
/// Mi-symbol whole field.
constexpr unsigned kWideBits = 12;

/// Per-length canonical tables, indexed by code length.
using LengthTable = std::array<std::uint64_t, kMaxCodeLength + 2>;

/// Reverses the low `len` bits of `v` (code <-> stream bit order), for
/// len in [1, 32].
std::uint64_t reverse_bits(std::uint64_t v, unsigned len) {
  auto r = static_cast<std::uint32_t>(v);
  r = ((r >> 1) & 0x55555555U) | ((r & 0x55555555U) << 1);
  r = ((r >> 2) & 0x33333333U) | ((r & 0x33333333U) << 2);
  r = ((r >> 4) & 0x0F0F0F0FU) | ((r & 0x0F0F0F0FU) << 4);
  r = ((r >> 8) & 0x00FF00FFU) | ((r & 0x00FF00FFU) << 8);
  r = (r >> 16) | (r << 16);
  return r >> (32 - len);
}

/// Builds code lengths by Huffman tree construction over the used symbols
/// only: `weights[i] > 0` is the count of the i-th used symbol in ascending
/// symbol order. Nodes are ordered by (weight, index), with internal nodes
/// numbered after the used symbols: symbols tie-break by value, below every
/// internal node, and internal nodes by creation order — the order a build
/// over the whole alphabet gives, so the lengths do not depend on how many
/// unused symbols the alphabet holds. Merged weights never decrease, so
/// the internal nodes form a second queue already in that order, and
/// taking the smaller of the two queue fronts merges exactly the pairs a
/// min-heap over all nodes would pop, in linear time after one sort.
/// Depths are computed in one topological pass over the parent links:
/// internal nodes are appended after their children, so parent indices
/// are always larger and a single descending sweep resolves every depth.
void build_lengths(std::span<const std::uint64_t> weights,
                   std::vector<std::uint8_t>& lengths) {
  const std::size_t n = weights.size();
  lengths.assign(n, 1);
  if (n <= 1) {
    return;
  }
  std::vector<std::uint32_t> leaves(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaves[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(leaves.begin(), leaves.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return weights[a] != weights[b] ? weights[a] < weights[b]
                                              : a < b;
            });
  const std::size_t total = 2 * n - 1;
  std::vector<std::uint64_t> weight(total);
  std::copy(weights.begin(), weights.end(), weight.begin());
  std::vector<std::uint32_t> parent(total, UINT32_MAX);
  std::size_t next_leaf = 0;
  std::size_t next_internal = n;
  const auto pop = [&](std::size_t created) {
    if (next_leaf < n &&
        (next_internal == created ||
         weight[leaves[next_leaf]] <= weight[next_internal])) {
      return static_cast<std::size_t>(leaves[next_leaf++]);
    }
    return next_internal++;
  };
  for (std::size_t node = n; node < total; ++node) {
    const std::size_t a = pop(node);
    const std::size_t b = pop(node);
    weight[node] = weight[a] + weight[b];
    parent[a] = static_cast<std::uint32_t>(node);
    parent[b] = static_cast<std::uint32_t>(node);
  }

  // With 64-bit weights the deepest possible tree is Fibonacci-bounded at
  // ~92 levels, so a 16-bit depth cannot saturate.
  std::vector<std::uint16_t> depth(total, 0);
  for (std::size_t idx = total - 1; idx-- > 0;) {
    depth[idx] = static_cast<std::uint16_t>(depth[parent[idx]] + 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    lengths[i] = static_cast<std::uint8_t>(std::min<std::uint16_t>(depth[i],
                                                                    255));
  }
}

/// Code lengths for the used symbols' `weights`, capped at kMaxCodeLength.
/// With a 2^16-ish alphabet and 64-bit weights a single build virtually
/// always fits in 32 bits, but skewed adversarial inputs are handled by
/// halving the weights and rebuilding; after 8 halvings every used symbol
/// gets the fixed length that addresses the whole `alphabet_size`.
void capped_code_lengths(std::span<const std::uint64_t> weights,
                         std::size_t alphabet_size,
                         std::vector<std::uint8_t>& lengths) {
  std::vector<std::uint64_t> work(weights.begin(), weights.end());
  for (int attempt = 0; attempt < 8; ++attempt) {
    build_lengths(work, lengths);
    if (lengths.empty() ||
        *std::max_element(lengths.begin(), lengths.end()) <= kMaxCodeLength) {
      return;
    }
    for (auto& w : work) {
      w = (w + 1) / 2;
    }
  }
  unsigned bits = 1;
  while ((std::size_t{1} << bits) < alphabet_size) {
    ++bits;
  }
  lengths.assign(weights.size(), static_cast<std::uint8_t>(bits));
}

/// Alphabet-indexed per-thread table that is all zero between calls. The
/// encoder counts symbols into it, then overwrites each used symbol's count
/// with its stream code entry, and finally zeroes exactly the entries it
/// touched, so no call pays for clearing all 2^16 entries (256 KiB). Every
/// thread that encodes keeps one.
std::vector<std::uint32_t>& symbol_table(std::uint32_t alphabet_size) {
  thread_local std::vector<std::uint32_t> table;
  if (table.size() < alphabet_size) {
    table.resize(alphabet_size, 0);
  }
  return table;
}

/// Zeroes the symbol-table entries of `used` on scope exit.
struct SymbolTableReset {
  std::vector<std::uint32_t>& table;
  const std::vector<std::uint32_t>& used;
  ~SymbolTableReset() {
    for (std::uint32_t s : used) {
      table[s] = 0;
    }
  }
};

/// Writes a single-symbol entry for every code of at most `width` bits
/// into `table` (2^width slots, zeroed by the caller), walking the
/// canonical order rank by rank. Kraft bounds the total fill at 2^width
/// slots. Entry layout (shared with the pair entries of the wide table):
///   bits  0..31  symbol
///   bits 49..54  code length
///   bits 55..60  code length (bits consumed when emitting this entry)
///   bits 62..63  symbols resolvable at this slot (1)
void fill_single_entries(std::vector<std::uint64_t>& table, unsigned width,
                         unsigned max_len, const LengthTable& count_by_len,
                         const LengthTable& first_code,
                         const LengthTable& first_index,
                         std::span<const std::uint32_t> symbols_by_rank) {
  for (unsigned len = 1; len <= std::min(width, max_len); ++len) {
    const std::size_t fills = std::size_t{1} << (width - len);
    for (std::uint64_t r = 0; r < count_by_len[len]; ++r) {
      const std::uint64_t base = reverse_bits(first_code[len] + r, len);
      const std::uint64_t m =
          std::uint64_t{symbols_by_rank[first_index[len] + r]} |
          (std::uint64_t{len} << 49) | (std::uint64_t{len} << 55) |
          (std::uint64_t{1} << 62);
      for (std::size_t fill = 0; fill < fills; ++fill) {
        table[base | (fill << len)] = m;
      }
    }
  }
}

/// The 57 to 64 stream bits from bit `pos` of `payload` on, LSB first;
/// bits past the end read as zeros.
std::uint64_t window_at(std::span<const std::uint8_t> payload,
                        std::uint64_t pos) noexcept {
  const auto byte = static_cast<std::size_t>(pos >> 3);
  std::uint64_t word = 0;
  if (byte < payload.size()) {
    std::memcpy(&word, payload.data() + byte,
                std::min(sizeof(word), payload.size() - byte));
  }
  return word >> (pos & 7);
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freq) {
  std::vector<std::uint64_t> weights;
  for (std::uint64_t w : freq) {
    if (w > 0) {
      weights.push_back(w);
    }
  }
  std::vector<std::uint8_t> used_lengths;
  capped_code_lengths(weights, freq.size(), used_lengths);
  std::vector<std::uint8_t> lengths(freq.size(), 0);
  std::size_t next = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) {
      lengths[s] = used_lengths[next++];
    }
  }
  return lengths;
}

std::vector<std::uint8_t> huffman_encode(std::span<const std::uint32_t> symbols,
                                         std::uint32_t alphabet_size) {
  LCP_REQUIRE(alphabet_size > 0, "alphabet must be non-empty");
  LCP_REQUIRE(symbols.size() <= UINT32_MAX,
              "huffman: symbol count exceeds the 32-bit histogram");
  // Histogram in the zeroed per-thread table, collecting each symbol on
  // its first occurrence, so every later step runs over the few hundred
  // symbols a slab uses rather than the whole alphabet.
  auto& table = symbol_table(alphabet_size);
  std::vector<std::uint32_t> used;
  const SymbolTableReset reset{table, used};
  for (std::uint32_t s : symbols) {
    LCP_REQUIRE(s < alphabet_size, "symbol out of alphabet range");
    if (table[s] == 0) {
      used.push_back(s);
    }
    ++table[s];
  }
  std::sort(used.begin(), used.end());
  std::vector<std::uint64_t> weights(used.size());
  for (std::size_t i = 0; i < used.size(); ++i) {
    weights[i] = table[used[i]];
  }
  std::vector<std::uint8_t> lengths;
  capped_code_lengths(weights, alphabet_size, lengths);

  // Canonical codes: symbols sorted by (length, value). Canonical codes are
  // MSB-first by construction and the decoder consumes them MSB-first;
  // BitWriter emits the low bit of a value first, so each code is stored
  // pre-reversed, packed above its length in the symbol's table entry (or
  // in `long_codes`, past kInlineCodeBits), and emitted as a single
  // write_bits call.
  LengthTable count_by_len{};
  for (std::uint8_t l : lengths) {
    ++count_by_len[l];
  }
  LengthTable next_code{};
  std::uint64_t code = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    code = (code + count_by_len[l - 1]) << 1;
    next_code[l] = code;
  }
  std::vector<std::uint64_t> long_codes;
  std::uint64_t payload_bits = 0;
  for (std::size_t i = 0; i < used.size(); ++i) {
    const unsigned len = lengths[i];
    std::uint64_t packed = reverse_bits(next_code[len]++, len);
    if (len > kInlineCodeBits) {
      long_codes.push_back(packed);
      packed = long_codes.size() - 1;
    }
    table[used[i]] = static_cast<std::uint32_t>(packed << 8) | len;
    payload_bits += weights[i] * len;
  }

  // RLE of the length table: (length byte, run length u32), maximal runs
  // over the whole alphabet. The zero runs are the gaps between used
  // symbols.
  std::uint32_t runs = 0;
  ByteWriter rle;
  std::uint8_t run_len = 0;
  std::uint32_t run_count = 0;
  const auto flush_run = [&] {
    if (run_count > 0) {
      rle.write_u8(run_len);
      rle.write_u32(run_count);
      ++runs;
    }
  };
  const auto extend_run = [&](std::uint8_t len, std::uint32_t n) {
    if (n == 0) {
      return;
    }
    if (run_count > 0 && len == run_len) {
      run_count += n;
      return;
    }
    flush_run();
    run_len = len;
    run_count = n;
  };
  std::uint32_t pos = 0;
  for (std::size_t i = 0; i < used.size(); ++i) {
    extend_run(0, used[i] - pos);
    extend_run(lengths[i], 1);
    pos = used[i] + 1;
  }
  extend_run(0, alphabet_size - pos);
  flush_run();
  const auto rle_bytes = rle.finish();

  ByteWriter header;
  header.write_u32(alphabet_size);
  header.write_u64(symbols.size());
  header.write_u32(runs);
  header.write_bytes(rle_bytes);

  BitWriter bits;
  bits.reserve(static_cast<std::size_t>((payload_bits + 7) / 8) + 8);
  const std::uint32_t* entries = table.data();
  for (std::uint32_t s : symbols) {
    const std::uint32_t entry = entries[s];
    const unsigned len = entry & 0xFF;
    if (len > kInlineCodeBits) [[unlikely]] {
      bits.write_bits(long_codes[entry >> 8], len);
    } else {
      bits.write_bits(entry >> 8, len);
    }
  }
  auto payload = bits.finish();

  ByteWriter out;
  auto header_bytes = header.finish();
  out.reserve(header_bytes.size() + 8 + payload.size());
  out.write_bytes(header_bytes);
  out.write_u64(payload.size());
  out.write_bytes(payload);
  return out.finish();
}

Expected<std::vector<std::uint32_t>> huffman_decode(
    std::span<const std::uint8_t> blob, std::uint64_t max_count) {
  std::vector<std::uint32_t> out;
  auto status = huffman_decode_into(blob, max_count, out);
  if (!status.is_ok()) {
    return status;
  }
  return out;
}

Status huffman_decode_into(std::span<const std::uint8_t> blob,
                           std::uint64_t max_count,
                           std::vector<std::uint32_t>& out) {
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
  // The length table as its runs of used symbols: zero-length runs are
  // validated and skipped, so everything below follows the symbols the
  // stream uses, not the alphabet.
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

  // Canonical decode tables: for each length, the first code and the index
  // into the symbol list ordered by (length, symbol). A length table the
  // encoder can produce satisfies Kraft (first_code + count <= 2^len at
  // every length); checking it bounds every table fill below by its slot
  // count and keeps the code arithmetic within 33 bits.
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
  // Every code spends at least one bit and every used symbol occurs at
  // least once, so a genuine stream never claims more symbols than payload
  // bits or more used symbols than symbols; both bound the allocations
  // below by the bytes supplied.
  if (*count > static_cast<std::uint64_t>(payload->size()) * 8) {
    return Status::corrupt_data("huffman: symbol count exceeds payload");
  }
  if (index > *count) {
    return Status::corrupt_data("huffman: more coded symbols than symbols");
  }

  // Counting sort of the used symbols by (length, symbol) in one pass over
  // the runs.
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

  // Multi-symbol decode: each probe of the kWideBits window resolves up
  // to two codes, and codes past the window take the limit search below
  // instead of a bit-serial walk.
  //
  // Each slot packs into one 64-bit word (the loop is latency-bound on
  // the serial peek -> table load -> skip chain, so the table must stay
  // as small and line-aligned as possible):
  //   bits  0..31  first symbol
  //   bits 32..48  second symbol (pairs; zero in single entries)
  //   bits 49..54  bits consumed when emitting the first symbol only
  //   bits 55..60  bits consumed when emitting every symbol of the slot
  //   bits 62..63  symbols resolvable at this slot (0-2)
  // Pairs need every used symbol to fit the 17-bit second field, which
  // SZ's quantizer alphabet always does; a stream using a larger symbol
  // keeps single entries, which the same loop reads unchanged.
  //
  // The table is built once per decode (pooled across calls, so
  // steady-state decompression re-faults no pages): one pass writes the
  // single-symbol entries and a second pass upgrades slots to pairs in
  // place. The in-place upgrade is sound because pair entries preserve
  // their own first-symbol and first-length fields, which is all the
  // chaining read needs. Chaining two single-symbol lookups per slot is
  // sound because for len0 + len1 <= window width the second lookup's
  // index bits are all genuine stream bits, and past the end of the
  // payload both lookups see the same zero padding a one-symbol-at-a-time
  // decode sees, so the success/corrupt verdicts are that decode's. Past
  // twice the longest code a wider window pairs nothing more, so short
  // codes get a smaller table.
  const bool pairs = code_runs.empty() ||
                     code_runs.back().first_symbol + code_runs.back().count <=
                         (std::uint32_t{1} << 17);
  const unsigned wide_bits = std::min(kWideBits, std::max(2 * max_len, 1U));
  const std::size_t wide_slots = std::size_t{1} << wide_bits;
  const std::uint64_t wide_mask = wide_slots - 1;
  ScratchLease<std::uint64_t> mtable_lease;
  auto& mtable = mtable_lease.get();
  mtable.assign(wide_slots, 0);
  fill_single_entries(mtable, wide_bits, max_len, count_by_len, first_code,
                      first_index, symbols_by_rank);
  for (std::size_t idx = 0; pairs && idx < wide_slots; ++idx) {
    const std::uint64_t m1 = mtable[idx];
    if (m1 == 0) {
      continue;
    }
    const unsigned len0 = static_cast<unsigned>((m1 >> 49) & 63);
    const std::uint64_t m2 = mtable[idx >> len0];
    const unsigned len1 = static_cast<unsigned>((m2 >> 49) & 63);
    if (m2 != 0 && len0 + len1 <= wide_bits) {
      mtable[idx] = (m1 & 0xFFFFFFFF) | ((m2 & 0x1FFFF) << 32) |
                    (std::uint64_t{len0} << 49) |
                    (std::uint64_t{len0 + len1} << 55) |
                    (std::uint64_t{2} << 62);
    }
  }

  // Codes longer than the window (or garbage) resolve by comparing the
  // next 32 stream bits, read MSB-first, against each length's
  // left-justified code limit: the canonical codes of lengths <= L tile
  // [0, limit[L]) in order, so the code's length is the first L whose
  // limit exceeds the window. A table miss means no code of at most
  // wide_bits bits heads the window, so the search starts past it. The
  // code is prefix-free (Kraft, checked above), so the match is the one a
  // bit-serial canonical walk finds. Returns the code length, or 0 when
  // no code matches.
  LengthTable limit{};
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    limit[l] = (first_code[l] + count_by_len[l]) << (kMaxCodeLength - l);
  }
  const auto long_code = [&](std::uint64_t window,
                             std::uint32_t& symbol) noexcept {
    const std::uint64_t v = reverse_bits(window, kMaxCodeLength);
    unsigned len = wide_bits + 1;
    while (len <= max_len && v >= limit[len]) {
      ++len;
    }
    if (len > max_len) {
      return 0U;
    }
    symbol = symbols_by_rank[first_index[len] + (v >> (kMaxCodeLength - len)) -
                             first_code[len]];
    return len;
  };

  // The hot loop is a serial dependency chain (probe -> table load ->
  // cursor advance -> next probe), so the body holds the pending stream
  // bits in registers and refills them from memory only every few symbols
  // (a refill banks >= 57 bits; one probe spends at most wide_bits). The
  // body is branchless apart from the refill and its exits: both symbol
  // slots store unconditionally, and running the loop only while two
  // output slots remain (i + 1 < total) makes the advance and bit counts
  // plain field extracts — a pair entry always consumes both symbols, so
  // `total bits` is the consumption for every resolvable entry. Codes
  // longer than the table window, the last 8 bytes of the payload and the
  // last symbol (where a pair slot spends only its first code) decode one
  // code at a time outside that loop, through window_at. Past the end of
  // the payload the window reads zeros, as a bit-serial decode would; such
  // a stream decodes garbage until the count is reached and then fails
  // the one overflow check after the loop (the cursor only moves forward).
  const std::uint64_t total = *count;
  out.resize(static_cast<std::size_t>(total) + 1);
  std::uint32_t* dst = out.data();
  std::uint64_t i = 0;

  const std::span<const std::uint8_t> stream = *payload;
  std::uint64_t buf = 0;  // stream bits [pos, pos + navail), LSB first
  unsigned navail = 0;
  std::uint64_t pos = 0;  // bits consumed
  while (i < total) {
    while (i + 1 < total) {
      if (navail < wide_bits) {
        const auto byte = static_cast<std::size_t>(pos >> 3);
        if (byte + sizeof(buf) > stream.size()) {
          break;
        }
        std::memcpy(&buf, stream.data() + byte, sizeof(buf));
        buf >>= pos & 7;
        navail = 64 - static_cast<unsigned>(pos & 7);
      }
      const std::uint64_t e = mtable[buf & wide_mask];
      if (e == 0) {
        break;
      }
      const auto consumed = static_cast<unsigned>((e >> 55) & 63);
      dst[i] = static_cast<std::uint32_t>(e);
      dst[i + 1] = static_cast<std::uint32_t>((e >> 32) & 0x1FFFF);
      buf >>= consumed;
      navail -= consumed;
      pos += consumed;
      i += static_cast<std::uint64_t>(e >> 62);
    }
    if (i == total) {
      break;
    }
    // One code from a fresh window (it holds all 32 bits a long code
    // searches).
    buf = window_at(stream, pos);
    navail = 64 - static_cast<unsigned>(pos & 7);
    const std::uint64_t e = mtable[buf & wide_mask];
    auto symbol = static_cast<std::uint32_t>(e);
    auto len = static_cast<unsigned>((e >> 49) & 63);
    if (e == 0 && (len = long_code(buf, symbol)) == 0) {
      return Status::corrupt_data("huffman: invalid code in stream");
    }
    dst[i] = symbol;
    ++i;
    buf >>= len;
    navail -= len;
    pos += len;
  }
  if (pos > std::uint64_t{stream.size()} * 8) {
    return Status::corrupt_data("huffman: invalid code in stream");
  }
  out.resize(static_cast<std::size_t>(total));
  return Status::ok();
}

}  // namespace lcp::sz
