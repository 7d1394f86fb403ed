#pragma once
// Test helper: a codec container rebuilt so that its codec decodes part of
// the output and then fails, the case in which a slab walk must not keep
// the partly written range.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/common/container.hpp"
#include "support/bytestream.hpp"

namespace lcp::compress {

/// `container` rebuilt around a payload its codec starts to decode and
/// then rejects, so the codec writes part of its output before it fails.
/// SZ: one more unpredictable value than the stream consumes (the whole
/// slab is reconstructed, then the count check fails). ZFP: the bit stream
/// cut to half its bytes (the leading blocks decode, then it runs out).
inline std::vector<std::uint8_t> fails_partway(
    std::span<const std::uint8_t> container) {
  const auto view = parse_container(container);
  EXPECT_TRUE(view.has_value());
  const auto payload = view->payload;
  ByteWriter w;
  if (view->codec == "sz") {
    // The payload ends with the unpredictable count (u64) and its values.
    std::size_t count = 0;
    while (8 + 4 * count <= payload.size()) {
      ByteReader r{payload.subspan(payload.size() - 4 * count - 8, 8)};
      if (*r.read_u64() == count) {
        break;
      }
      ++count;
    }
    EXPECT_LE(8 + 4 * count, payload.size());
    const std::size_t at = payload.size() - 4 * count - 8;
    w.write_bytes(payload.first(at));
    w.write_u64(count + 1);
    w.write_bytes(payload.subspan(at + 8));
    w.write_u32(0);
  } else {
    EXPECT_EQ(view->codec, "zfp");
    // version, q and guard bytes, then the bit stream's size and bytes.
    const std::size_t kept = (payload.size() - 11) / 2;
    w.write_bytes(payload.first(3));
    w.write_u64(kept);
    w.write_bytes(payload.subspan(11, kept));
  }
  return build_container(view->codec, view->bound, view->dims,
                         view->field_name, w.finish());
}

}  // namespace lcp::compress
