#include "compress/sz/zlite.hpp"

#include <bit>
#include <cstring>

#include "support/buffer_pool.hpp"

namespace lcp::sz {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxDistance = 1 << 20;
constexpr std::size_t kHashBits = 16;

std::uint32_t hash4(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761U) >> (32 - kHashBits);
}

void write_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

bool read_varint(std::span<const std::uint8_t> in, std::size_t& pos,
                 std::uint64_t& v) noexcept {
  v = 0;
  unsigned shift = 0;
  while (pos < in.size() && shift < 64) {
    const std::uint8_t byte = in[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace

std::vector<std::uint8_t> zlite_compress(std::span<const std::uint8_t> input) {
  std::vector<std::uint8_t> out;
  out.reserve(input.size() / 2 + 16);
  write_varint(out, input.size());

  // 256 KiB hash table, pooled: recycled across calls on the same thread
  // so the parallel compression path does not pay an mmap round-trip per
  // chunk just to look up matches.
  ScratchLease<std::uint32_t> head_lease{std::size_t{1} << kHashBits};
  auto& head = head_lease.get();
  head.assign(std::size_t{1} << kHashBits, UINT32_MAX);

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  while (pos + kMinMatch <= input.size()) {
    const std::uint32_t h = hash4(&input[pos]);
    const std::uint32_t candidate = head[h];
    head[h] = static_cast<std::uint32_t>(pos);

    std::size_t match_len = 0;
    if (candidate != UINT32_MAX && pos - candidate <= kMaxDistance &&
        std::memcmp(&input[candidate], &input[pos], kMinMatch) == 0) {
      match_len = kMinMatch;
      const std::size_t limit = input.size() - pos;
      // Extend 8 bytes at a time; the first XOR difference pinpoints the
      // mismatch byte via its trailing zero count. Same greedy longest
      // match as the byte loop, so the emitted stream is unchanged.
      while (match_len + 8 <= limit) {
        std::uint64_t lhs = 0;
        std::uint64_t rhs = 0;
        std::memcpy(&lhs, &input[candidate + match_len], 8);
        std::memcpy(&rhs, &input[pos + match_len], 8);
        const std::uint64_t diff = lhs ^ rhs;
        if (diff != 0) {
          match_len += static_cast<std::size_t>(std::countr_zero(diff)) >> 3;
          break;
        }
        match_len += 8;
      }
      if (match_len + 8 > limit) {
        while (match_len < limit &&
               input[candidate + match_len] == input[pos + match_len]) {
          ++match_len;
        }
      }
    }

    if (match_len >= kMinMatch) {
      // literal run | match
      write_varint(out, pos - literal_start);
      out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(literal_start),
                 input.begin() + static_cast<std::ptrdiff_t>(pos));
      write_varint(out, match_len);
      write_varint(out, pos - candidate);
      // Insert sparse hash entries inside the match to keep the table warm.
      const std::size_t end = pos + match_len;
      for (std::size_t i = pos + 1; i + kMinMatch <= end; i += 3) {
        head[hash4(&input[i])] = static_cast<std::uint32_t>(i);
      }
      pos = end;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  // Trailing literals with a terminating zero-length match.
  write_varint(out, input.size() - literal_start);
  out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(literal_start),
             input.end());
  write_varint(out, 0);
  return out;
}

Expected<std::vector<std::uint8_t>> zlite_decompress(
    std::span<const std::uint8_t> input, std::uint64_t max_output) {
  std::vector<std::uint8_t> out;
  LCP_RETURN_IF_ERROR(zlite_decompress_into(input, out, max_output));
  return out;
}

Status zlite_decompress_into(std::span<const std::uint8_t> input,
                             std::vector<std::uint8_t>& out,
                             std::uint64_t max_output) {
  std::size_t pos = 0;
  std::uint64_t total = 0;
  if (!read_varint(input, pos, total)) {
    return Status::corrupt_data("zlite: missing size prefix");
  }
  if (total > max_output) {
    return Status::corrupt_data("zlite: declared size exceeds limit");
  }
  out.clear();
  out.reserve(static_cast<std::size_t>(total));

  while (true) {
    std::uint64_t literal_len = 0;
    if (!read_varint(input, pos, literal_len)) {
      return Status::corrupt_data("zlite: truncated literal length");
    }
    // Subtraction form: `pos + literal_len` could wrap for a hostile
    // 64-bit varint and sail past both checks.
    if (literal_len > input.size() - pos || literal_len > total - out.size()) {
      return Status::corrupt_data("zlite: literal run out of bounds");
    }
    out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(pos),
               input.begin() + static_cast<std::ptrdiff_t>(pos + literal_len));
    pos += static_cast<std::size_t>(literal_len);

    std::uint64_t match_len = 0;
    if (!read_varint(input, pos, match_len)) {
      return Status::corrupt_data("zlite: truncated match length");
    }
    if (match_len == 0) {
      break;
    }
    std::uint64_t dist = 0;
    if (!read_varint(input, pos, dist)) {
      return Status::corrupt_data("zlite: truncated match distance");
    }
    if (dist == 0 || dist > out.size() || match_len > total - out.size()) {
      return Status::corrupt_data("zlite: match out of bounds");
    }
    // Overlapping matches (dist < len) are legal and must replicate the
    // period byte-by-byte. For dist >= 8 the source window never reaches
    // the bytes being written (src + i + 8 <= dst + i), so the copy can
    // move 8-byte blocks after one resize; short distances keep the
    // byte loop.
    const std::size_t src = out.size() - static_cast<std::size_t>(dist);
    const std::size_t len = static_cast<std::size_t>(match_len);
    if (dist >= 8) {
      const std::size_t dst = out.size();
      out.resize(dst + len);
      std::uint8_t* data = out.data();
      std::size_t i = 0;
      for (; i + 8 <= len; i += 8) {
        std::memcpy(data + dst + i, data + src + i, 8);
      }
      for (; i < len; ++i) {
        data[dst + i] = data[src + i];
      }
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back(out[src + i]);
      }
    }
  }
  if (out.size() != total) {
    return Status::corrupt_data("zlite: output size mismatch");
  }
  return Status::ok();
}

}  // namespace lcp::sz
