// The incremental store's restore decodes its slabs on the shared team:
// the field, the verdicts and the summed slab_failovers must be what the
// inline walk over the same slabs gives, with a replica down and with an
// object gone from every replica.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "compress/common/framing.hpp"
#include "core/incremental_checkpoint.hpp"
#include "data/field.hpp"
#include "io/nfs_server.hpp"
#include "io/replica_set.hpp"

namespace lcp::core {
namespace {

constexpr std::size_t kChunk = 512;
constexpr std::size_t kSlabs = 40;

data::Field wave_field() {
  std::vector<float> values(kChunk * kSlabs);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.5F + 0.001F * static_cast<float>(i % 263) +
                0.01F * static_cast<float>((i / 97) % 11);
  }
  return data::Field{"rho", data::Dims::d1(values.size()), std::move(values)};
}

struct Rig {
  io::NfsServer s0, s1, s2;
  io::ReplicaSet replicas{{&s0, &s1, &s2}, {}};
  IncrementalCheckpointStore store{replicas, options()};

  static IncrementalStoreOptions options() {
    IncrementalStoreOptions o;
    o.root = "ckpt";
    o.checkpoint.codec = "sz";
    o.checkpoint.bound = compress::ErrorBound::absolute(1e-3);
    o.checkpoint.chunk_elements = kChunk;
    return o;
  }
};

/// The inline walk over the classic checkpoint of `field`: the bytes every
/// restored slab must decode to.
compress::RecoveryReport inline_reference(const data::Field& field) {
  const auto opts = Rig::options().checkpoint;
  auto bytes = compress::write_checkpoint(field, opts);
  EXPECT_TRUE(bytes.has_value());
  auto rec = compress::recover_framed(*bytes);
  EXPECT_TRUE(rec.has_value());
  auto report = compress::decode_slabs(
      compress::SlabLayout::of(field, opts),
      [&rec](std::size_t s) {
        const auto& chunk = rec->chunks[s + 1];
        return compress::SlabBytes{static_cast<std::uint32_t>(s + 1),
                                   chunk.state, chunk.status, chunk.payload,
                                   {}};
      },
      {});
  EXPECT_TRUE(report.has_value());
  return std::move(*report);
}

void expect_same_values(std::span<const float> a, std::span<const float> b,
                        std::size_t offset, std::size_t count) {
  ASSERT_LE(offset + count, a.size());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data() + offset, b.data() + offset,
                        count * sizeof(float)),
            0)
      << "elements [" << offset << ", " << offset + count << ")";
}

TEST(DecodeSlabsStoreTest, RestoreWithAReplicaDownMatchesTheInlineWalk) {
  Rig rig;
  const auto field = wave_field();
  ASSERT_TRUE(rig.store.dump(field).has_value());
  const auto want = inline_reference(field);
  for (std::size_t down = 0; down < 3; ++down) {
    rig.replicas.set_replica_down(down, true);
    const auto got = rig.store.restore(1);
    rig.replicas.set_replica_down(down, false);
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    ASSERT_TRUE(got->complete());
    expect_same_values(got->field.values(), want.field.values(), 0,
                       field.element_count());
    // Slab s prefers replica s % 3: each slab preferring the down replica
    // fails over exactly once.
    std::size_t failovers = 0;
    for (std::size_t s = 0; s < kSlabs; ++s) {
      failovers += s % 3 == down ? 1 : 0;
    }
    EXPECT_EQ(got->slab_failovers, failovers) << "replica " << down;
  }
}

TEST(DecodeSlabsStoreTest, ObjectGoneEverywhereCountsEveryReplicaOnce) {
  Rig rig;
  const auto field = wave_field();
  ASSERT_TRUE(rig.store.dump(field).has_value());
  const auto want = inline_reference(field);
  const auto objects = rig.s0.list_files("ckpt/slabs/");
  ASSERT_FALSE(objects.empty());
  for (io::NfsServer* server : {&rig.s0, &rig.s1, &rig.s2}) {
    ASSERT_TRUE(server->remove_file(objects[objects.size() / 2]).has_value());
  }
  rig.replicas.set_replica_down(2, true);
  const auto got = rig.store.restore(1);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();

  std::size_t lost = 0;
  std::size_t failovers = 0;
  for (std::size_t s = 0; s < kSlabs; ++s) {
    const auto& v = got->slabs[s];
    EXPECT_EQ(v.chunk_seq, s);
    if (v.recovered) {
      expect_same_values(got->field.values(), want.field.values(),
                         v.element_offset, v.element_count);
      failovers += s % 3 == 2 ? 1 : 0;
    } else {
      ++lost;
      EXPECT_EQ(v.frame_state, compress::ChunkState::kMissing);
      failovers += 3;
    }
  }
  EXPECT_EQ(lost, 1U);
  EXPECT_EQ(got->lost_elements, kChunk);
  EXPECT_EQ(got->slab_failovers, failovers);
}

}  // namespace
}  // namespace lcp::core
