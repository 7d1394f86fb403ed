// Deterministic corruption fuzzer for every decode path: seeded mutators
// (bit flips, truncations, splices, zero runs, header tampering) are
// driven against codec containers, framed streams and checkpoints.
// Invariant: no crash, no out-of-bounds access (the CI sanitizer legs
// enforce this), and no silent success — a decode either fails with a
// typed Status or returns a structurally sane result. Equal seeds produce
// equal mutation streams, so any failure is replayable from its seed.

#include <gtest/gtest.h>

#include "compress/common/checkpoint.hpp"
#include "compress/common/framing.hpp"
#include "compress/common/registry.hpp"
#include "core/incremental_checkpoint.hpp"
#include "data/generators.hpp"
#include "frame_chunks.hpp"
#include "io/nfs_server.hpp"
#include "io/replica_set.hpp"
#include "support/rng.hpp"

namespace lcp::compress {
namespace {

enum class Mutator : std::uint64_t {
  kBitFlip = 0,
  kByteSet,
  kTruncate,
  kSplice,
  kZeroRun,
  kHeaderTamper,
  kCount,
};

/// Applies one seeded mutation. Deterministic: the mutation is a pure
/// function of (input, rng state).
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> bytes, Rng& rng) {
  if (bytes.empty()) {
    return bytes;
  }
  const auto kind = static_cast<Mutator>(
      rng.uniform_index(static_cast<std::uint64_t>(Mutator::kCount)));
  switch (kind) {
    case Mutator::kBitFlip: {
      const std::size_t at = rng.uniform_index(bytes.size());
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      break;
    }
    case Mutator::kByteSet: {
      const std::size_t at = rng.uniform_index(bytes.size());
      bytes[at] = static_cast<std::uint8_t>(rng.next_u64());
      break;
    }
    case Mutator::kTruncate: {
      bytes.resize(rng.uniform_index(bytes.size()));
      break;
    }
    case Mutator::kSplice: {
      // Copy a random window over another position (simulates a torn
      // write or sector remap stitching two stream regions together).
      const std::size_t len = 1 + rng.uniform_index(
          std::min<std::size_t>(64, bytes.size()));
      const std::size_t src = rng.uniform_index(bytes.size() - len + 1);
      const std::size_t dst = rng.uniform_index(bytes.size() - len + 1);
      std::vector<std::uint8_t> window(bytes.begin() + static_cast<std::ptrdiff_t>(src),
                                       bytes.begin() + static_cast<std::ptrdiff_t>(src + len));
      std::copy(window.begin(), window.end(),
                bytes.begin() + static_cast<std::ptrdiff_t>(dst));
      break;
    }
    case Mutator::kZeroRun: {
      const std::size_t len = 1 + rng.uniform_index(
          std::min<std::size_t>(128, bytes.size()));
      const std::size_t at = rng.uniform_index(bytes.size() - len + 1);
      std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                bytes.begin() + static_cast<std::ptrdiff_t>(at + len), 0);
      break;
    }
    case Mutator::kHeaderTamper: {
      // Concentrate damage in the first 64 bytes, where the magic,
      // version, dims and length fields live.
      const std::size_t window = std::min<std::size_t>(64, bytes.size());
      const std::size_t at = rng.uniform_index(window);
      bytes[at] = static_cast<std::uint8_t>(rng.next_u64());
      break;
    }
    case Mutator::kCount:
      break;
  }
  return bytes;
}

/// A successful decode of a mutated container must still be structurally
/// sane: bounded element count and dims consistent with the values.
void expect_sane(const DecompressResult& result, std::size_t max_elements) {
  EXPECT_LE(result.field.element_count(), max_elements);
  EXPECT_EQ(result.field.dims().element_count(), result.field.element_count());
}

TEST(CorruptionFuzzTest, EveryCodecSurvivesSeededMutations) {
  // >= 2000 mutations across the registered codecs (4 codecs x 600).
  const auto field = data::generate_cesm_atm(2, 12, 16, 21);
  for (const auto& name : registered_codec_names()) {
    auto codec = make_compressor(name);
    ASSERT_TRUE(codec.has_value());
    auto compressed = (*codec)->compress(field, ErrorBound::absolute(1e-2));
    ASSERT_TRUE(compressed.has_value()) << name;

    Rng rng{0xC0FFEEu + std::hash<std::string>{}(name)};
    for (int trial = 0; trial < 600; ++trial) {
      const auto mutated = mutate(compressed->container, rng);
      const auto decoded = decompress_any(mutated);
      if (decoded.has_value()) {
        expect_sane(*decoded, 16 * field.element_count());
      } else {
        EXPECT_NE(decoded.status().code(), ErrorCode::kOk);
      }
    }
  }
}

TEST(CorruptionFuzzTest, FramedStreamsSurviveSeededMutations) {
  const std::vector<std::uint8_t> payload(5000, 0xAB);
  const auto framed = frame_in_chunks(payload, 512);
  Rng rng{777};
  for (int trial = 0; trial < 1000; ++trial) {
    const auto mutated = mutate(framed, rng);
    // Strict read: fail or return the exact payload.
    const auto strict = read_framed(mutated);
    if (strict.has_value()) {
      EXPECT_TRUE(strict->complete());
      EXPECT_EQ(joined_payload(*strict), payload);
    }
    // Recovery: must not crash; every intact chunk's span stays in bounds.
    const auto rec = recover_framed(mutated);
    if (rec.has_value()) {
      for (const auto& c : rec->chunks) {
        if (c.state == ChunkState::kIntact) {
          EXPECT_LE(c.payload.size(), mutated.size());
        } else {
          EXPECT_FALSE(c.status.is_ok());
        }
      }
    }
  }
}

TEST(CorruptionFuzzTest, CheckpointsSurviveSeededMutations) {
  const auto field = data::generate_nyx(20, 33);
  CheckpointOptions opts;
  opts.codec = "sz";
  opts.chunk_elements = 1024;
  auto bytes = write_checkpoint(field, opts);
  ASSERT_TRUE(bytes.has_value());

  Rng rng{424242};
  for (int trial = 0; trial < 600; ++trial) {
    const auto mutated = mutate(*bytes, rng);
    const auto report = recover_checkpoint(mutated);
    if (report.has_value()) {
      // The recovered field must have the manifest's shape, and verdicts
      // must cover every slab exactly once.
      EXPECT_EQ(report->field.element_count(), report->total_elements);
      std::size_t covered = 0;
      for (const auto& v : report->slabs) {
        covered += v.element_count;
        EXPECT_TRUE(v.recovered == v.status.is_ok());
      }
      EXPECT_EQ(covered, report->total_elements);
    } else {
      EXPECT_NE(report.status().code(), ErrorCode::kOk);
    }
    const auto strict = read_checkpoint(mutated);
    if (strict.has_value()) {
      // Silent success is only legal if the stream still verifies fully.
      EXPECT_EQ(strict->element_count(), field.element_count());
    }
  }
}

TEST(CorruptionFuzzTest, MutationStreamIsDeterministic) {
  const std::vector<std::uint8_t> input(256, 0x11);
  Rng a{99};
  Rng b{99};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(mutate(input, a), mutate(input, b)) << i;
  }
}

TEST(CorruptionFuzzTest, StackedMutationsNeverCrashRecovery) {
  // Pile 1..8 mutations on top of each other before each decode, so the
  // fuzzer also exercises compound damage (truncate + splice + flips).
  const auto field = data::generate_hacc(2048, 5);
  auto bytes = write_checkpoint(field, CheckpointOptions{});
  ASSERT_TRUE(bytes.has_value());
  Rng rng{31337};
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = *bytes;
    const std::uint64_t stack = 1 + rng.uniform_index(8);
    for (std::uint64_t i = 0; i < stack; ++i) {
      mutated = mutate(std::move(mutated), rng);
    }
    (void)recover_checkpoint(mutated);
    (void)read_checkpoint(mutated);
  }
}

/// Fixture state for the journal fuzzers: a 3-replica incremental store
/// holding two generations, plus the lossy-roundtrip reference field for
/// each so "silently wrong" is checkable bit-for-bit.
struct JournalFuzzRig {
  io::NfsServer s0, s1, s2;
  io::ReplicaSet replicas{{&s0, &s1, &s2}, {}};
  core::IncrementalStoreOptions opts;
  core::IncrementalCheckpointStore store;
  std::vector<data::Field> reference;  ///< index g-1 = generation g
  std::string journal_name;            ///< the live epoch's journal path
  std::vector<std::uint8_t> pristine;  ///< intact journal bytes

  JournalFuzzRig() : opts(make_options()), store(replicas, opts) {
    auto gen1 = data::generate_nyx(16, 7);
    auto gen2 = gen1;
    auto values = gen2.mutable_values();
    for (std::size_t i = 0; i < 700; ++i) {
      values[i] += 0.5F;
    }
    EXPECT_TRUE(store.dump(gen1).has_value());
    EXPECT_TRUE(store.dump(gen2).has_value());
    for (std::uint64_t g : {std::uint64_t{1}, std::uint64_t{2}}) {
      auto restored = store.restore(g);
      EXPECT_TRUE(restored.has_value());
      reference.push_back(std::move(restored->field));
    }
    // Journals are epoch-named; superseded epochs are pruned on publish,
    // so exactly one file remains after the two dumps.
    const auto files = s0.list_files("ckpt/journal.");
    EXPECT_EQ(files.size(), 1u);
    if (!files.empty()) {
      journal_name = files.front();
      const auto bytes = s0.read_file(journal_name);
      EXPECT_TRUE(bytes.has_value());
      pristine.assign(bytes->begin(), bytes->end());
    }
  }

  static core::IncrementalStoreOptions make_options() {
    core::IncrementalStoreOptions o;
    o.checkpoint.codec = "sz";
    o.checkpoint.chunk_elements = 512;
    return o;
  }

  io::NfsServer& server(std::size_t r) { return replicas.server(r); }

  void plant_journal(std::size_t r, const std::vector<std::uint8_t>& bytes) {
    for (const std::string& path : server(r).list_files("ckpt/journal.")) {
      (void)server(r).remove_file(path);
    }
    if (!bytes.empty()) {
      EXPECT_TRUE(
          server(r).handle_write_at(journal_name, 0, bytes).has_value());
    }
  }

  /// The fuzz invariant: a restore either fails with a typed Status or
  /// yields a known generation; a restore claiming completeness must be
  /// bit-for-bit one of the two references. Degraded-but-wrong is the
  /// one outcome the journal design must make impossible.
  void expect_sane_restore(std::uint64_t generation) {
    const auto restored = store.restore(generation);
    if (!restored.has_value()) {
      EXPECT_NE(restored.status().code(), ErrorCode::kOk);
      return;
    }
    ASSERT_EQ(restored->generation, generation);
    if (restored->complete()) {
      const auto& want = reference[generation - 1];
      ASSERT_EQ(restored->field.element_count(), want.element_count());
      EXPECT_TRUE(std::equal(want.values().begin(), want.values().end(),
                             restored->field.values().begin()));
    }
  }
};

TEST(CorruptionFuzzTest, JournalSurvivesSingleReplicaMutations) {
  // >= 400 seeded mutations of one replica's journal: the two intact
  // copies hold quorum, so every restore must stay correct (never
  // silently wrong) no matter what the damaged copy claims.
  JournalFuzzRig rig;
  Rng rng{0x10AD5EEDu};
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t victim = trial % 3;
    rig.plant_journal(victim, mutate(rig.pristine, rng));
    rig.expect_sane_restore(1);
    rig.expect_sane_restore(2);
    const auto latest = rig.store.restore_latest();
    if (latest.has_value()) {
      EXPECT_GE(latest->generation, 1u);
      EXPECT_LE(latest->generation, 2u);
    }
    rig.plant_journal(victim, rig.pristine);
  }
}

TEST(CorruptionFuzzTest, JournalSurvivesIdenticalMutationsOnAllReplicas) {
  // >= 200 seeds where the same damage lands on every copy (a bad client
  // fanned out a torn write): no quorum of intact bytes may exist, so
  // the store fails typed or degrades — never fabricates a generation.
  JournalFuzzRig rig;
  Rng rng{0xBADC0DEu};
  for (int trial = 0; trial < 200; ++trial) {
    const auto mutated = mutate(rig.pristine, rng);
    for (std::size_t r = 0; r < 3; ++r) {
      rig.plant_journal(r, mutated);
    }
    rig.expect_sane_restore(1);
    rig.expect_sane_restore(2);
    for (std::size_t r = 0; r < 3; ++r) {
      rig.plant_journal(r, rig.pristine);
    }
  }
}

TEST(CorruptionFuzzTest, TamperedJournalEntryFailsClosed) {
  // Deterministic regression for the fuzz invariant: one flipped byte in
  // generation 1's journal entry on EVERY replica. The per-chunk CRC
  // rejects the entry everywhere, so generation 1 reads as lost — a
  // typed error, not a differently-shaped restore — while generation 2
  // stays bit-for-bit restorable.
  JournalFuzzRig rig;
  // Walk the frame chunk headers to the payload of chunk 1 (chunk 0 is
  // the epoch header record; entries follow in generation order).
  std::size_t pos = kFrameHeaderBytes;
  const auto chunk_length = [&](std::size_t at) {
    return static_cast<std::uint32_t>(rig.pristine[at + 8]) |
           (static_cast<std::uint32_t>(rig.pristine[at + 9]) << 8) |
           (static_cast<std::uint32_t>(rig.pristine[at + 10]) << 16) |
           (static_cast<std::uint32_t>(rig.pristine[at + 11]) << 24);
  };
  pos += kChunkHeaderBytes + chunk_length(pos);  // skip header record
  auto tampered = rig.pristine;
  tampered[pos + kChunkHeaderBytes + 4] ^= 0x01;
  for (std::size_t r = 0; r < 3; ++r) {
    rig.plant_journal(r, tampered);
  }
  const auto gen1 = rig.store.restore(1);
  ASSERT_FALSE(gen1.has_value());
  EXPECT_NE(gen1.status().code(), ErrorCode::kOk);
  const auto gen2 = rig.store.restore(2);
  ASSERT_TRUE(gen2.has_value()) << gen2.status().message();
  EXPECT_TRUE(gen2->complete());
  const auto& want = rig.reference[1];
  EXPECT_TRUE(std::equal(want.values().begin(), want.values().end(),
                         gen2->field.values().begin()));
}

}  // namespace
}  // namespace lcp::compress
