// Pinned wire bytes for the framed checkpoint formats: FNV-1a 64 digests
// of write_checkpoint frames (and the byte-identical streaming_dump
// output) over a small dataset x codec matrix, plus the journal file an
// IncrementalCheckpointStore leaves after two generations, all at both
// dispatch levels. The manifest and journal-entry encodings share one
// layout codec; any change to what either puts on the wire shows up here
// as a digest mismatch. Unpinned, it would silently orphan every stored
// checkpoint and journal.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/common/checkpoint.hpp"
#include "core/incremental_checkpoint.hpp"
#include "core/streaming_dump.hpp"
#include "data/generators.hpp"
#include "io/nfs_client.hpp"
#include "io/nfs_server.hpp"
#include "io/replica_set.hpp"
#include "support/checksum.hpp"
#include "support/dispatch.hpp"
#include "support/thread_pool.hpp"

namespace lcp::core {
namespace {

using simd::ScopedSimdLevel;
using simd::SimdLevel;

enum class Dataset { kNyx, kCesm };

struct PinnedFrame {
  Dataset dataset;
  const char* codec;
  std::uint64_t digest;  // write_checkpoint frame
};

data::Field make_field(Dataset dataset) {
  return dataset == Dataset::kNyx ? data::generate_nyx(32, 3)
                                  : data::generate_cesm_atm(6, 40, 80, 4);
}

compress::CheckpointOptions pinned_options(const char* codec) {
  compress::CheckpointOptions opts;
  opts.codec = codec;
  opts.bound = compress::ErrorBound::absolute(1e-2);
  opts.chunk_elements = 1 << 13;  // several slabs per field
  return opts;
}

// clang-format off
const PinnedFrame kFrames[] = {
    {Dataset::kNyx, "sz", 0x2C724F92EE19A7C7ULL},
    {Dataset::kNyx, "zfp", 0x2D47523A00BFCA7CULL},
    {Dataset::kCesm, "sz", 0xE379D31C1ACD799EULL},
    {Dataset::kCesm, "zfp", 0x3E75E6DA3A77ECCCULL},
};
constexpr std::uint64_t kJournalDigest = 0x6A0EF215FB64293DULL;
// clang-format on

TEST(WirePinnedBytesTest, CheckpointFramesMatchRecordedDigests) {
  for (const auto& c : kFrames) {
    SCOPED_TRACE(std::string{c.dataset == Dataset::kNyx ? "nyx " : "cesm "} +
                 c.codec);
    const auto field = make_field(c.dataset);
    const auto opts = pinned_options(c.codec);
    for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      ScopedSimdLevel guard{level};
      SCOPED_TRACE(simd::simd_level_name(simd::simd_level()));
      auto frame = compress::write_checkpoint(field, opts);
      ASSERT_TRUE(frame.has_value()) << frame.status().to_string();
      const std::uint64_t digest = fnv1a64(*frame);
      EXPECT_EQ(digest, c.digest) << "frame 0x" << std::hex << digest;

      io::NfsServer server;
      io::NfsClient client{server};
      ThreadPool pool{3};
      StreamingDumpConfig cfg;
      cfg.checkpoint = opts;
      auto stats = streaming_dump(field, pool, client, "pinned", cfg);
      ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
      auto stored = server.read_file("pinned");
      ASSERT_TRUE(stored.has_value());
      EXPECT_EQ(fnv1a64(*stored), c.digest) << "streaming_dump";
    }
  }
}

struct PinnedJournal {
  std::uint32_t chunk_elements;
  std::uint64_t digest;
};

// The journal records every slab's raw hash, so it pins the store's
// raw-hash pass too. 2^13-element slabs give CESM 3 slabs, all hashed
// serially; 2^11 gives 10, a full 8-lane group plus a serial pair whose
// last slab is ragged; 2560 gives 8, one group whose last lane runs out
// halfway.
// clang-format off
const PinnedJournal kJournals[] = {
    {1u << 13, kJournalDigest},
    {1u << 11, 0x289578D96859736CULL},
    {2560, 0x06DB97010E4039A4ULL},
};
// clang-format on

TEST(WirePinnedBytesTest, JournalMatchesRecordedDigest) {
  for (const auto& c : kJournals) {
    for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      ScopedSimdLevel guard{level};
      SCOPED_TRACE(std::to_string(c.chunk_elements) + "-element slabs, " +
                   simd::simd_level_name(simd::simd_level()));
      io::NfsServer s0;
      io::NfsServer s1;
      io::NfsServer s2;
      io::ReplicaSet replicas{{&s0, &s1, &s2}, {}};
      IncrementalStoreOptions opts;
      opts.root = "ckpt";
      opts.checkpoint = pinned_options("sz");
      opts.checkpoint.chunk_elements = c.chunk_elements;
      IncrementalCheckpointStore store{replicas, opts};

      const auto gen1 = make_field(Dataset::kCesm);
      std::vector<float> values(gen1.values().begin(), gen1.values().end());
      for (std::size_t i = 9000; i < 9100; ++i) {
        values[i] += 0.5F;  // dirties one slab at either slab size
      }
      const data::Field gen2{gen1.name(), gen1.dims(), std::move(values)};
      ASSERT_TRUE(store.dump(gen1).has_value());
      const auto second = store.dump(gen2);
      ASSERT_TRUE(second.has_value()) << second.status().to_string();
      EXPECT_EQ(second->dirty_slabs, 1u);

      for (io::NfsServer* server : {&s0, &s1, &s2}) {
        const auto files = server->list_files("ckpt/journal.");
        ASSERT_EQ(files.size(), 1u);
        auto journal = server->read_file(files.front());
        ASSERT_TRUE(journal.has_value());
        const std::uint64_t digest = fnv1a64(*journal);
        EXPECT_EQ(digest, c.digest) << "journal 0x" << std::hex << digest;
      }
    }
  }
}

}  // namespace
}  // namespace lcp::core
