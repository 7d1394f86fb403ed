#pragma once
// CRC32C (Castagnoli polynomial, as used by iSCSI, ext4 and the NFS/RDMA
// stack) for end-to-end chunk integrity on the modeled I/O path. The
// injected-fault tests rely on CRC32C's guaranteed detection of any
// single-bit corruption within an RPC-sized chunk.
//
// Both checksums follow the SIMD dispatch level (support/dispatch.hpp):
// at kAvx2 CRC32C runs on the SSE4.2 `crc32` instruction (three
// interleaved streams on long inputs, joined with crc32c_combine) and
// fnv1a64_many hashes 8 inputs per pass in AVX2 lanes. The portable
// twins (slice-by-4 tables, byte-serial FNV-1a) give the same values, so
// every frame, journal and slab name is independent of the host.

#include <cstdint>
#include <span>

namespace lcp {

/// Incremental update: feeds `data` into a running CRC32C. Start from
/// `kCrc32cInit` (or a previous update's return value) and finish with
/// crc32c_finish. Chains so that update(a)+update(b) == update(a||b).
inline constexpr std::uint32_t kCrc32cInit = 0xFFFFFFFFu;

[[nodiscard]] std::uint32_t crc32c_update(
    std::uint32_t state, std::span<const std::uint8_t> data) noexcept;

[[nodiscard]] constexpr std::uint32_t crc32c_finish(
    std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC32C of `data` ("123456789" -> 0xE3069283).
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data) noexcept;

/// CRC32C of a concatenation from its parts' CRCs:
/// crc32c_combine(crc32c(a), crc32c(b), b.size()) == crc32c(a || b).
/// The same identity holds for running crc32c_update states when `crc_b`
/// is an update started from 0 instead of kCrc32cInit. Multiplies
/// `crc_a` by x^(8 * len_b) modulo the polynomial: one carry-less
/// multiplication per non-zero base-256 digit of len_b, by powers
/// tabulated at compile time, so the cost is O(log len_b), touches no data
/// byte and is the same at every dispatch level (a len_b below 256, or a
/// power of two, costs one multiplication).
[[nodiscard]] std::uint32_t crc32c_combine(std::uint32_t crc_a,
                                           std::uint32_t crc_b,
                                           std::uint64_t len_b) noexcept;

// --- FNV-1a 64 --------------------------------------------------------------
//
// 64-bit content keys for the content-addressed slab store
// (core/incremental_checkpoint.hpp). CRC32C stays the per-chunk wire/frame
// check; slab identity needs the wider keyspace (a 512 GB dump at 128 KiB
// slabs holds 2^22 slabs, where 32-bit keys would collide birthday-style
// every few thousand generations while 2^64 keeps the expected collision
// count negligible for the life of the store).

inline constexpr std::uint64_t kFnv1a64Init = 0xCBF29CE484222325ull;

/// Incremental update: chains like crc32c_update, starting from
/// kFnv1a64Init (or a previous update's return value). No finalization
/// step: the running state is the hash.
[[nodiscard]] std::uint64_t fnv1a64_update(
    std::uint64_t state, std::span<const std::uint8_t> data) noexcept;

/// One-shot FNV-1a 64 of `data` ("" -> kFnv1a64Init, "a" -> 0xAF63DC4C8601EC8C).
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> data) noexcept;

/// out[i] = fnv1a64(inputs[i]) for every input; `out` must hold
/// inputs.size() values. At kAvx2 each run of 8 consecutive inputs is
/// hashed in 8 lanes while at least 4 of them still have bytes (a ragged
/// input ends its lane early), and what the lanes leave is finished
/// serially; at kScalar, or for fewer than 8 inputs left, every input is
/// hashed serially. The values are the same either way.
void fnv1a64_many(std::span<const std::span<const std::uint8_t>> inputs,
                  std::span<std::uint64_t> out) noexcept;

}  // namespace lcp
