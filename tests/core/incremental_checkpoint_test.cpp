// Incremental checkpoint store suite: delta-chain byte-identity against
// the classic checkpoint pipeline, content-addressed dedup, quorum
// restores under replica loss, damaged-object verdicts, journal
// durability, GC round-trips, and a differential check that restore and
// recover_checkpoint agree bit for bit on the same damage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "compress/common/framing.hpp"
#include "compress/common/registry.hpp"
#include "core/incremental_checkpoint.hpp"
#include "data/field.hpp"
#include "io/fault.hpp"
#include "io/nfs_server.hpp"
#include "io/replica_set.hpp"
#include "support/bytestream.hpp"
#include "support/checksum.hpp"

namespace lcp::core {
namespace {

using io::NfsServer;

constexpr std::size_t kElements = 4096;
constexpr std::size_t kChunk = 512;  // 8 slabs

data::Field ramp_field(float scale = 1.0F, const std::string& name = "rho") {
  std::vector<float> values(kElements);
  for (std::size_t i = 0; i < kElements; ++i) {
    values[i] = scale * (0.25F + 0.001F * static_cast<float>(i % 257));
  }
  return data::Field{name, data::Dims::d1(kElements), std::move(values)};
}

data::Field touch(const data::Field& field, std::size_t offset,
                  std::size_t count, float delta) {
  std::vector<float> values(field.values().begin(), field.values().end());
  for (std::size_t i = offset; i < std::min(values.size(), offset + count);
       ++i) {
    values[i] += delta;
  }
  return data::Field{field.name(), field.dims(), std::move(values)};
}

/// What the classic pipeline would decode for `field` — the byte-identity
/// reference (lossy codecs make the raw field the wrong comparand).
data::Field reference(const data::Field& field,
                      const compress::CheckpointOptions& opts) {
  auto bytes = compress::write_checkpoint(field, opts);
  EXPECT_TRUE(bytes.has_value());
  auto decoded = compress::read_checkpoint(*bytes);
  EXPECT_TRUE(decoded.has_value());
  return std::move(*decoded);
}

struct Rig {
  NfsServer s0, s1, s2;
  io::ReplicaSet replicas{{&s0, &s1, &s2}, {}};
  IncrementalStoreOptions opts;
  IncrementalCheckpointStore store;

  explicit Rig(const std::string& codec = "sz")
      : opts(make_options(codec)), store(replicas, opts) {}

  static IncrementalStoreOptions make_options(const std::string& codec) {
    IncrementalStoreOptions o;
    o.root = "ckpt";
    o.checkpoint.codec = codec;
    o.checkpoint.bound = compress::ErrorBound::absolute(1e-3);
    o.checkpoint.chunk_elements = kChunk;
    return o;
  }
};

void expect_identical(const data::Field& a, const data::Field& b) {
  ASSERT_EQ(a.element_count(), b.element_count());
  EXPECT_TRUE(std::equal(a.values().begin(), a.values().end(),
                         b.values().begin()));
}

TEST(IncrementalStoreTest, FirstDumpWritesEverySlab) {
  Rig rig;
  const auto field = ramp_field();
  const auto summary = rig.store.dump(field);
  ASSERT_TRUE(summary.has_value()) << summary.status().message();
  EXPECT_EQ(summary->generation, 1u);
  EXPECT_EQ(summary->slab_count, kElements / kChunk);
  EXPECT_EQ(summary->dirty_slabs, summary->slab_count);
  EXPECT_EQ(summary->written_slabs, summary->slab_count);
  EXPECT_GT(summary->payload_bytes.bytes(), 0u);
  EXPECT_GT(summary->journal_bytes.bytes(), 0u);
  // Every byte fanned out to 3 replicas.
  EXPECT_GE(summary->replicated_bytes.bytes(),
            3u * summary->payload_bytes.bytes());
}

TEST(IncrementalStoreTest, GenerationOneObjectsAreWriteCheckpointSlabChunks) {
  // A first dump re-encodes every slab through the same walk as
  // write_checkpoint, so with nothing to diff against (d = 1) the stored
  // objects are exactly the full dump's slab chunks.
  for (const char* codec : {"sz", "zfp"}) {
    SCOPED_TRACE(codec);
    Rig rig{codec};
    const auto field = ramp_field();
    ASSERT_TRUE(rig.store.dump(field).has_value());

    auto frame = compress::write_checkpoint(field, rig.opts.checkpoint);
    ASSERT_TRUE(frame.has_value());
    auto walked = compress::recover_framed(*frame);
    ASSERT_TRUE(walked.has_value());
    const std::size_t slabs = kElements / kChunk;
    ASSERT_EQ(walked->chunks.size(), slabs + 2);
    std::vector<std::string> names;
    for (std::size_t s = 0; s < slabs; ++s) {
      const auto payload = walked->chunks[s + 1].payload;
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(fnv1a64(payload)));
      names.push_back(std::string{"ckpt/slabs/"} + hex);
      for (NfsServer* server : {&rig.s0, &rig.s1, &rig.s2}) {
        const auto object = server->read_file(names.back());
        ASSERT_TRUE(object.has_value()) << "slab " << s;
        EXPECT_TRUE(std::equal(object->begin(), object->end(),
                               payload.begin(), payload.end()))
            << "slab " << s;
      }
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    EXPECT_EQ(rig.s0.list_files("ckpt/slabs/"), names);
  }
}

TEST(IncrementalStoreTest, CleanRedumpWritesNothing) {
  Rig rig;
  const auto field = ramp_field();
  ASSERT_TRUE(rig.store.dump(field).has_value());
  const auto again = rig.store.dump(field);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->generation, 2u);
  EXPECT_EQ(again->dirty_slabs, 0u);
  EXPECT_EQ(again->written_slabs, 0u);
  EXPECT_EQ(again->payload_bytes.bytes(), 0u);
  // Only the journal rewrite went on the wire.
  EXPECT_EQ(again->replicated_bytes.bytes(),
            3u * again->journal_bytes.bytes());
}

TEST(IncrementalStoreTest, DeltaDumpTouchesOnlyDirtySlabs) {
  Rig rig;
  const auto gen1 = ramp_field();
  ASSERT_TRUE(rig.store.dump(gen1).has_value());
  // Touch slabs 2 and 3 only.
  const auto gen2 = touch(gen1, 2 * kChunk + 10, kChunk, 0.5F);
  const auto summary = rig.store.dump(gen2);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->dirty_slabs, 2u);
  EXPECT_EQ(summary->written_slabs, 2u);
}

TEST(IncrementalStoreTest, ThreeGenerationChainRestoresByteIdentical) {
  Rig rig;
  std::vector<data::Field> chain;
  chain.push_back(ramp_field());
  chain.push_back(touch(chain[0], 0, kChunk, 0.25F));
  chain.push_back(touch(chain[1], 5 * kChunk, 2 * kChunk, -0.125F));
  for (const auto& field : chain) {
    ASSERT_TRUE(rig.store.dump(field).has_value());
  }
  compress::RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  for (std::size_t g = 0; g < chain.size(); ++g) {
    const auto restored = rig.store.restore(g + 1, strict);
    ASSERT_TRUE(restored.has_value()) << restored.status().message();
    EXPECT_TRUE(restored->complete());
    EXPECT_EQ(restored->generation, g + 1);
    expect_identical(restored->field,
                     reference(chain[g], rig.opts.checkpoint));
  }
}

TEST(IncrementalStoreTest, RestoreLatestPicksNewestGeneration) {
  Rig rig;
  const auto gen1 = ramp_field();
  const auto gen2 = touch(gen1, 0, kChunk, 1.0F);
  ASSERT_TRUE(rig.store.dump(gen1).has_value());
  ASSERT_TRUE(rig.store.dump(gen2).has_value());
  const auto restored = rig.store.restore_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->generation, 2u);
  expect_identical(restored->field, reference(gen2, rig.opts.checkpoint));
}

TEST(IncrementalStoreTest, IdenticalContentDeduplicatesAcrossSlabs) {
  Rig rig;
  // All 8 slabs carry identical bytes: one stored object serves them all.
  std::vector<float> values(kElements, 1.5F);
  const data::Field field{"flat", data::Dims::d1(kElements),
                          std::move(values)};
  const auto summary = rig.store.dump(field);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->dirty_slabs, kElements / kChunk);
  EXPECT_EQ(summary->written_slabs, 1u);
  const auto restored = rig.store.restore(1);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->complete());
}

TEST(IncrementalStoreTest, RestoreSurvivesAnySingleReplicaLoss) {
  Rig rig;
  const auto gen1 = ramp_field();
  const auto gen2 = touch(gen1, kChunk, kChunk, 0.5F);
  ASSERT_TRUE(rig.store.dump(gen1).has_value());
  ASSERT_TRUE(rig.store.dump(gen2).has_value());
  compress::RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  for (std::size_t down = 0; down < 3; ++down) {
    rig.replicas.set_replica_down(down, true);
    for (std::uint64_t g : {std::uint64_t{1}, std::uint64_t{2}}) {
      const auto restored = rig.store.restore(g, strict);
      ASSERT_TRUE(restored.has_value())
          << "replica " << down << " down, gen " << g << ": "
          << restored.status().message();
      EXPECT_TRUE(restored->complete());
    }
    rig.replicas.set_replica_down(down, false);
  }
}

TEST(IncrementalStoreTest, CorruptCopyFailsOverToGoodReplica) {
  Rig rig;
  ASSERT_TRUE(rig.store.dump(ramp_field()).has_value());
  // Corrupt every slab object on replica 0 (flip one byte in place).
  for (const std::string& path : rig.s0.list_files("ckpt/slabs/")) {
    auto bytes = rig.s0.read_file(path);
    ASSERT_TRUE(bytes.has_value());
    std::vector<std::uint8_t> damaged(bytes->begin(), bytes->end());
    damaged[damaged.size() / 2] ^= 0x40;
    ASSERT_TRUE(rig.s0.remove_file(path).has_value());
    ASSERT_TRUE(rig.s0.handle_write_at(path, 0, damaged).has_value());
  }
  compress::RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  const auto restored = rig.store.restore(1, strict);
  ASSERT_TRUE(restored.has_value()) << restored.status().message();
  EXPECT_TRUE(restored->complete());
  // Slabs whose preferred replica was 0 had to fail over.
  EXPECT_GT(restored->slab_failovers, 0u);
}

TEST(IncrementalStoreTest, AllCopiesDamagedYieldsPerSlabVerdicts) {
  Rig rig;
  const auto field = ramp_field();
  ASSERT_TRUE(rig.store.dump(field).has_value());
  // Destroy slab object 0's copies everywhere: pick the object referenced
  // by the first slab via a restore report, then damage all replicas.
  const auto before = rig.store.restore(1);
  ASSERT_TRUE(before.has_value());
  const auto paths = rig.s0.list_files("ckpt/slabs/");
  ASSERT_FALSE(paths.empty());
  const std::string victim = paths.front();
  for (NfsServer* s : {&rig.s0, &rig.s1, &rig.s2}) {
    ASSERT_TRUE(s->remove_file(victim).has_value());
  }
  const auto restored = rig.store.restore(1);
  ASSERT_TRUE(restored.has_value());
  EXPECT_FALSE(restored->complete());
  EXPECT_GT(restored->lost_elements, 0u);
  std::size_t lost = 0;
  for (const auto& v : restored->slabs) {
    if (!v.recovered) {
      ++lost;
      EXPECT_FALSE(v.status.is_ok());
    }
  }
  EXPECT_GE(lost, 1u);

  // Strict policy turns the same loss into a typed error.
  compress::RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  const auto failed = rig.store.restore(1, strict);
  EXPECT_FALSE(failed.has_value());
}

TEST(IncrementalStoreTest, InterpolateFillBridgesLostSlab) {
  Rig rig("lossless");
  const auto field = ramp_field();
  ASSERT_TRUE(rig.store.dump(field).has_value());
  // Remove one mid-field object from every replica; zero vs interpolate
  // fills must differ and interpolation must stay within neighbor range.
  const auto paths = rig.s0.list_files("ckpt/slabs/");
  ASSERT_GT(paths.size(), 2u);
  const std::string victim = paths[paths.size() / 2];
  for (NfsServer* s : {&rig.s0, &rig.s1, &rig.s2}) {
    ASSERT_TRUE(s->remove_file(victim).has_value());
  }
  compress::RecoveryPolicy zero;
  zero.fill = compress::RecoveryFill::kZero;
  compress::RecoveryPolicy lerp;
  lerp.fill = compress::RecoveryFill::kInterpolate;
  const auto z = rig.store.restore(1, zero);
  const auto l = rig.store.restore(1, lerp);
  ASSERT_TRUE(z.has_value());
  ASSERT_TRUE(l.has_value());
  ASSERT_EQ(z->lost_elements, l->lost_elements);
  EXPECT_GT(z->lost_elements, 0u);
  EXPECT_FALSE(std::equal(z->field.values().begin(), z->field.values().end(),
                          l->field.values().begin()));
}

TEST(IncrementalStoreTest, OpenAttachesToExistingStore) {
  Rig rig;
  const auto gen1 = ramp_field();
  const auto gen2 = touch(gen1, 0, kChunk, 0.5F);
  ASSERT_TRUE(rig.store.dump(gen1).has_value());
  ASSERT_TRUE(rig.store.dump(gen2).has_value());

  // A second store instance over the same replicas: open() must rebuild
  // the index so the next dump still deduplicates against stored objects.
  IncrementalCheckpointStore second{rig.replicas, rig.opts};
  ASSERT_TRUE(second.open().is_ok());
  EXPECT_EQ(second.generations(), (std::vector<std::uint64_t>{1, 2}));
  const auto redump = second.dump(gen2);
  ASSERT_TRUE(redump.has_value());
  EXPECT_EQ(redump->generation, 3u);
  EXPECT_EQ(redump->dirty_slabs, 0u);
  EXPECT_EQ(redump->written_slabs, 0u);
}

TEST(IncrementalStoreTest, LayoutChangeMarksEverySlabDirty) {
  Rig rig;
  ASSERT_TRUE(rig.store.dump(ramp_field()).has_value());
  // Same bytes, different field name: raw hashes match but the layout
  // does not, so nothing may be reused.
  const auto renamed = ramp_field(1.0F, "rho2");
  const auto summary = rig.store.dump(renamed);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->dirty_slabs, kElements / kChunk);
  // The slab container embeds the field name, so no object is shared
  // with the old layout either — every slab is re-shipped.
  EXPECT_EQ(summary->written_slabs, kElements / kChunk);
  const auto restored = rig.store.restore(2);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->field.name(), "rho2");
}

TEST(IncrementalStoreTest, GcRemovesOnlyUnreferencedObjects) {
  Rig rig;
  const auto gen1 = ramp_field();
  const auto gen2 = touch(gen1, 0, 2 * kChunk, 0.5F);
  ASSERT_TRUE(rig.store.dump(gen1).has_value());
  ASSERT_TRUE(rig.store.dump(gen2).has_value());

  // Nothing unreferenced yet.
  const auto noop = rig.store.gc();
  ASSERT_TRUE(noop.has_value());
  EXPECT_EQ(noop->objects_removed, 0u);

  ASSERT_TRUE(rig.store.drop_generation(1).is_ok());
  const auto gc = rig.store.gc();
  ASSERT_TRUE(gc.has_value());
  // Gen 1's slabs 0,1 were superseded in gen 2; they are now garbage.
  EXPECT_EQ(gc->objects_removed, 2u);
  EXPECT_GT(gc->bytes_freed.bytes(), 0u);

  compress::RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  const auto restored = rig.store.restore(2, strict);
  ASSERT_TRUE(restored.has_value()) << restored.status().message();
  expect_identical(restored->field, reference(gen2, rig.opts.checkpoint));
  EXPECT_FALSE(rig.store.restore(1).has_value());
}

TEST(IncrementalStoreTest, RedumpAfterGcRewritesCollectedObjects) {
  Rig rig;
  const auto gen1 = ramp_field();
  const auto gen2 = touch(gen1, 0, kChunk, 0.5F);
  ASSERT_TRUE(rig.store.dump(gen1).has_value());
  ASSERT_TRUE(rig.store.dump(gen2).has_value());
  ASSERT_TRUE(rig.store.drop_generation(1).is_ok());
  ASSERT_TRUE(rig.store.gc().has_value());

  // Gen 1's slab-0 object is gone; dumping gen 1's content again must
  // RE-WRITE it (the index forgot it), not reference the deleted file.
  const auto redump = rig.store.dump(gen1);
  ASSERT_TRUE(redump.has_value());
  EXPECT_EQ(redump->dirty_slabs, 1u);
  EXPECT_EQ(redump->written_slabs, 1u);
  compress::RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  const auto restored = rig.store.restore(3, strict);
  ASSERT_TRUE(restored.has_value()) << restored.status().message();
  expect_identical(restored->field, reference(gen1, rig.opts.checkpoint));
}

TEST(IncrementalStoreTest, DumpFailsClosedBelowWriteQuorum) {
  Rig rig;
  rig.replicas.set_replica_down(0, true);
  rig.replicas.set_replica_down(1, true);
  const auto summary = rig.store.dump(ramp_field());
  ASSERT_FALSE(summary.has_value());
  EXPECT_EQ(summary.status().code(), ErrorCode::kUnavailable);
  // The generation was never published: nothing to restore.
  EXPECT_FALSE(rig.store.restore_latest().has_value());
}

TEST(IncrementalStoreTest, JournalQuorumRequiredForRestore) {
  Rig rig;
  ASSERT_TRUE(rig.store.dump(ramp_field()).has_value());
  rig.replicas.set_replica_down(0, true);
  rig.replicas.set_replica_down(1, true);
  // One readable journal copy < quorum 2: fail closed, not stale data.
  const auto restored = rig.store.restore(1);
  ASSERT_FALSE(restored.has_value());
  EXPECT_EQ(restored.status().code(), ErrorCode::kUnavailable);
}

TEST(IncrementalStoreTest, StaleReplicaJournalLosesToFresherQuorum) {
  Rig rig;
  const auto gen1 = ramp_field();
  const auto gen2 = touch(gen1, 0, kChunk, 0.5F);
  ASSERT_TRUE(rig.store.dump(gen1).has_value());
  // Replica 2 sleeps through generation 2 and the drop of generation 1.
  rig.replicas.set_replica_down(2, true);
  ASSERT_TRUE(rig.store.dump(gen2).has_value());
  ASSERT_TRUE(rig.store.drop_generation(1).is_ok());
  rig.replicas.set_replica_down(2, false);
  // Replica 2 still holds the epoch-1 journal listing generation 1 only;
  // the two fresh copies outvote it by epoch, not by luck.
  const auto restored = rig.store.restore_latest();
  ASSERT_TRUE(restored.has_value()) << restored.status().message();
  EXPECT_EQ(restored->generation, 2u);
  EXPECT_FALSE(rig.store.restore(1).has_value());
}

TEST(IncrementalStoreTest, FailedJournalPublishNeverDestroysCommittedState) {
  Rig rig;
  const auto gen1 = ramp_field();
  ASSERT_TRUE(rig.store.dump(gen1).has_value());

  // Persistent client-path outage on replicas 1 and 2. Server-side
  // removes still work, so a remove-then-write journal replace would
  // destroy the committed journal everywhere and land the replacement on
  // a single replica — below quorum, losing every published generation.
  io::FaultPlan outage;
  outage.episodes.push_back({io::FaultKind::kServerUnavailable, 0, 1u << 20,
                             io::kFaultPersistsForever});
  io::FaultInjector inj1{outage};
  io::FaultInjector inj2{outage};
  rig.replicas.attach_fault_injector(1, &inj1);
  rig.replicas.attach_fault_injector(2, &inj2);

  // A clean redump writes no slabs: the journal publish is the only
  // write, and it must miss quorum.
  const auto failed = rig.store.dump(gen1);
  ASSERT_FALSE(failed.has_value());
  EXPECT_EQ(failed.status().code(), ErrorCode::kUnavailable);

  rig.replicas.attach_fault_injector(1, nullptr);
  rig.replicas.attach_fault_injector(2, nullptr);

  // The committed generation survived the failed replace bit-for-bit...
  compress::RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  const auto restored = rig.store.restore_latest(strict);
  ASSERT_TRUE(restored.has_value()) << restored.status().message();
  EXPECT_EQ(restored->generation, 1u);
  expect_identical(restored->field, reference(gen1, rig.opts.checkpoint));
  // ...and the failed dump was rolled back, not half-published.
  EXPECT_FALSE(rig.store.restore(2).has_value());
}

TEST(IncrementalStoreTest, RetriedDumpAfterFailedJournalPublishSucceeds) {
  Rig rig;
  const auto gen1 = ramp_field();
  ASSERT_TRUE(rig.store.dump(gen1).has_value());

  io::FaultPlan outage;
  outage.episodes.push_back({io::FaultKind::kServerUnavailable, 0, 1u << 20,
                             io::kFaultPersistsForever});
  io::FaultInjector inj1{outage};
  io::FaultInjector inj2{outage};
  rig.replicas.attach_fault_injector(1, &inj1);
  rig.replicas.attach_fault_injector(2, &inj2);
  ASSERT_FALSE(rig.store.dump(gen1).has_value());
  rig.replicas.attach_fault_injector(1, nullptr);
  rig.replicas.attach_fault_injector(2, nullptr);

  // The retry must publish under a fresh epoch: an epoch reused from the
  // failed attempt could fork against copies that acked it.
  const auto gen2 = touch(gen1, 0, kChunk, 0.5F);
  const auto summary = rig.store.dump(gen2);
  ASSERT_TRUE(summary.has_value()) << summary.status().message();
  EXPECT_EQ(summary->generation, 2u);

  // A second store instance merges the replicas without seeing a fork.
  IncrementalCheckpointStore second{rig.replicas, rig.opts};
  ASSERT_TRUE(second.open().is_ok());
  EXPECT_EQ(second.generations(), (std::vector<std::uint64_t>{1, 2}));
  compress::RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  const auto restored = second.restore(2, strict);
  ASSERT_TRUE(restored.has_value()) << restored.status().message();
  expect_identical(restored->field, reference(gen2, rig.opts.checkpoint));
}

TEST(IncrementalStoreTest, FreshStoreVerdictRequiresAbsenceQuorum) {
  Rig rig;
  rig.replicas.set_replica_down(1, true);
  rig.replicas.set_replica_down(2, true);
  // One live, journal-less replica cannot prove the store is fresh: the
  // down replicas may hold committed generations. Everything fails
  // closed instead of restarting the store at epoch 1.
  EXPECT_EQ(rig.store.open().code(), ErrorCode::kUnavailable);
  const auto restored = rig.store.restore_latest();
  ASSERT_FALSE(restored.has_value());
  EXPECT_EQ(restored.status().code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(rig.store.dump(ramp_field()).has_value());

  // With every replica reachable the absence quorum is met: genuinely
  // fresh, and the first dump proceeds.
  rig.replicas.set_replica_down(1, false);
  rig.replicas.set_replica_down(2, false);
  EXPECT_TRUE(rig.store.open().is_ok());
  EXPECT_TRUE(rig.store.dump(ramp_field()).has_value());
}

TEST(IncrementalStoreTest, DropOfNewestGenerationNeverReusesItsNumber) {
  Rig rig;
  const auto gen1 = ramp_field();
  const auto gen2 = touch(gen1, 0, kChunk, 0.5F);
  ASSERT_TRUE(rig.store.dump(gen1).has_value());
  // Replica 2 sleeps through generation 2, its drop, and the follow-up.
  rig.replicas.set_replica_down(2, true);
  ASSERT_TRUE(rig.store.dump(gen2).has_value());
  ASSERT_TRUE(rig.store.drop_generation(2).is_ok());
  const auto gen3 = touch(gen1, kChunk, kChunk, -0.25F);
  const auto summary = rig.store.dump(gen3);
  ASSERT_TRUE(summary.has_value());
  // The replacement takes number 3, not 2: replica 2 still holds an
  // entry for generation 2, and a reused number would fork against it.
  EXPECT_EQ(summary->generation, 3u);

  rig.replicas.set_replica_down(2, false);
  const auto latest = rig.store.restore_latest();
  ASSERT_TRUE(latest.has_value()) << latest.status().message();
  EXPECT_EQ(latest->generation, 3u);
  expect_identical(latest->field, reference(gen3, rig.opts.checkpoint));
  EXPECT_FALSE(rig.store.restore(2).has_value());
}

TEST(IncrementalStoreTest, EmptyStoreRestoreIsTypedError) {
  Rig rig;
  const auto restored = rig.store.restore_latest();
  ASSERT_FALSE(restored.has_value());
  EXPECT_EQ(restored.status().code(), ErrorCode::kInvalidArgument);
}

TEST(IncrementalStoreTest, DumpValidatesInput) {
  Rig rig;
  const data::Field empty{"e", data::Dims::d1(1), std::vector<float>{1.0F}};
  IncrementalStoreOptions bad = rig.opts;
  bad.checkpoint.chunk_elements = 0;
  IncrementalCheckpointStore store{rig.replicas, bad};
  EXPECT_FALSE(store.dump(empty).has_value());
}

/// Raw-hash column of the newest generation in the journal `server`
/// holds, read from the stored bytes: header chunk first, generation
/// entries after it, the newest last.
std::vector<std::uint64_t> journal_raw_hashes(const NfsServer& server) {
  const auto journals = server.list_files("ckpt/journal.");
  EXPECT_FALSE(journals.empty());
  if (journals.empty()) {
    return {};
  }
  // Epoch names are fixed-width hex, so the last name is the newest epoch.
  const auto bytes = server.read_file(journals.back());
  EXPECT_TRUE(bytes.has_value());
  auto walked = compress::recover_framed(*bytes);
  EXPECT_TRUE(walked.has_value() && walked->chunks.size() >= 2);
  ByteReader r{walked->chunks.back().payload};
  EXPECT_TRUE(r.read_u32().has_value());  // magic
  EXPECT_TRUE(r.read_u8().has_value());   // version
  EXPECT_TRUE(r.read_u64().has_value());  // generation
  EXPECT_TRUE(r.read_u64().has_value());  // parent
  EXPECT_TRUE(compress::read_slab_layout(r, "entry").has_value());
  EXPECT_TRUE(r.read_u32().has_value());  // dirty slabs
  const auto count = r.read_u32();
  EXPECT_TRUE(count.has_value());
  std::vector<std::uint64_t> raw;
  for (std::uint32_t s = 0; count.has_value() && s < *count; ++s) {
    const auto raw_hash = r.read_u64();
    EXPECT_TRUE(raw_hash.has_value());
    raw.push_back(raw_hash.has_value() ? *raw_hash : 0);
    EXPECT_TRUE(r.read_u64().has_value());  // stored hash
    EXPECT_TRUE(r.read_u64().has_value());  // stored bytes
  }
  return raw;
}

/// The inline raw-hash pass: fnv1a64 of every slab's raw bytes, one slab
/// at a time.
std::vector<std::uint64_t> inline_raw_hashes(
    const data::Field& field, const compress::CheckpointOptions& opts) {
  const auto layout = compress::SlabLayout::of(field, opts);
  std::vector<std::uint64_t> hashes;
  for (std::size_t s = 0; s < layout.slab_count(); ++s) {
    const auto values = layout.slab_values(field, s);
    hashes.push_back(fnv1a64({reinterpret_cast<const std::uint8_t*>(
                                  values.data()),
                              values.size_bytes()}));
  }
  return hashes;
}

TEST(IncrementalStoreTest, RawHashPassCoversAPartialLastGroup) {
  // 13 slabs, the last one short: the pooled hash pass runs one full
  // group of 8 slabs and one partial group of 5.
  constexpr std::size_t kSlabs = 13;
  const std::size_t elements = kSlabs * kChunk - 100;
  std::vector<float> values(elements);
  for (std::size_t i = 0; i < elements; ++i) {
    values[i] = 0.5F + 0.001F * static_cast<float>(i % 311);
  }
  const data::Field gen1{"rho", data::Dims::d1(elements), std::move(values)};
  Rig rig;
  ASSERT_EQ(compress::checkpoint_slab_count(gen1, rig.opts.checkpoint),
            kSlabs);

  const auto first = rig.store.dump(gen1);
  ASSERT_TRUE(first.has_value()) << first.status().to_string();
  EXPECT_EQ(first->dirty_slabs, kSlabs);
  const auto hashes1 = inline_raw_hashes(gen1, rig.opts.checkpoint);
  EXPECT_EQ(journal_raw_hashes(rig.s0), hashes1);

  // Slabs 1 and 6 sit in the full group, 9 and 12 (the short one) in the
  // partial one.
  auto gen2 = touch(gen1, 1 * kChunk + 7, 3, 0.25F);
  gen2 = touch(gen2, 6 * kChunk, 1, 0.25F);
  gen2 = touch(gen2, 9 * kChunk + 100, 50, 0.25F);
  gen2 = touch(gen2, elements - 1, 1, 0.25F);
  const auto second = rig.store.dump(gen2);
  ASSERT_TRUE(second.has_value()) << second.status().to_string();
  const auto hashes2 = inline_raw_hashes(gen2, rig.opts.checkpoint);
  EXPECT_EQ(journal_raw_hashes(rig.s0), hashes2);
  std::size_t changed = 0;
  for (std::size_t s = 0; s < kSlabs; ++s) {
    changed += hashes1[s] != hashes2[s] ? 1 : 0;
  }
  EXPECT_EQ(changed, 4u);
  EXPECT_EQ(second->dirty_slabs, changed);
  EXPECT_EQ(second->written_slabs, changed);
  const auto restored = rig.store.restore_latest();
  ASSERT_TRUE(restored.has_value()) << restored.status().to_string();
  expect_identical(restored->field, reference(gen2, rig.opts.checkpoint));
}

// --- Differential oracle: restore vs recover_checkpoint -----------------
//
// One field, one CheckpointOptions, the same slab damaged in a checkpoint
// frame and in the store. Both paths run the one slab decode walk, so
// their fields and slab verdicts must agree bit for bit.

constexpr std::size_t kVictim = 3;

std::string object_path(std::uint64_t stored_hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(stored_hash));
  return std::string{"ckpt/slabs/"} + buf;
}

/// Stored-object hash of slab `s`, exactly as the store names it.
std::uint64_t slab_object_hash(const data::Field& field,
                               const compress::CheckpointOptions& opts,
                               std::size_t s) {
  auto codec = compress::make_compressor(opts.codec);
  EXPECT_TRUE(codec.has_value());
  auto slab = compress::compress_checkpoint_slab(field, opts, s, **codec);
  EXPECT_TRUE(slab.has_value());
  return fnv1a64(*slab);
}

/// A checkpoint frame of `field` whose slab `victim` chunk carries
/// `replacement` under a valid chunk CRC.
std::vector<std::uint8_t> frame_with_slab(
    const data::Field& field, const compress::CheckpointOptions& opts,
    std::size_t victim, std::span<const std::uint8_t> replacement) {
  auto manifest = compress::checkpoint_manifest(field, opts);
  auto codec = compress::make_compressor(opts.codec);
  EXPECT_TRUE(manifest.has_value() && codec.has_value());
  compress::FramedWriter writer{compress::kFrameFlagCheckpoint};
  writer.append_chunk(*manifest);
  for (std::size_t s = 0; s < compress::checkpoint_slab_count(field, opts);
       ++s) {
    auto slab = compress::compress_checkpoint_slab(field, opts, s, **codec);
    EXPECT_TRUE(slab.has_value());
    if (s == victim) {
      writer.append_chunk(replacement);
    } else {
      writer.append_chunk(*slab);
    }
  }
  writer.append_chunk(*manifest);
  return writer.finish();
}

void replace_everywhere(Rig& rig, const std::string& path,
                        std::span<const std::uint8_t> bytes) {
  for (NfsServer* s : {&rig.s0, &rig.s1, &rig.s2}) {
    (void)s->remove_file(path);
    ASSERT_TRUE(s->handle_write_at(path, 0, bytes).has_value());
  }
}

void expect_agree(Rig& rig, std::span<const std::uint8_t> frame) {
  for (auto fill :
       {compress::RecoveryFill::kZero, compress::RecoveryFill::kInterpolate}) {
    SCOPED_TRACE(fill == compress::RecoveryFill::kZero ? "zero" : "lerp");
    compress::RecoveryPolicy policy;
    policy.fill = fill;
    const auto recovered = compress::recover_checkpoint(frame, policy);
    const auto restored = rig.store.restore(1, policy);
    ASSERT_TRUE(recovered.has_value()) << recovered.status().to_string();
    ASSERT_TRUE(restored.has_value()) << restored.status().to_string();
    EXPECT_FALSE(restored->complete());
    EXPECT_EQ(restored->lost_elements, recovered->lost_elements);
    expect_identical(restored->field, recovered->field);
    ASSERT_EQ(restored->slabs.size(), recovered->slabs.size());
    for (std::size_t s = 0; s < restored->slabs.size(); ++s) {
      const auto& a = restored->slabs[s];
      const auto& b = recovered->slabs[s];
      EXPECT_EQ(a.element_offset, b.element_offset) << s;
      EXPECT_EQ(a.element_count, b.element_count) << s;
      EXPECT_EQ(a.recovered, b.recovered) << s;
      EXPECT_EQ(a.recovered, s != kVictim) << s;
    }
  }
}

TEST(IncrementalStoreTest, RestoreAgreesWithRecoverOnDamagedSlab) {
  Rig rig;
  const auto field = ramp_field();
  const auto& opts = rig.opts.checkpoint;
  ASSERT_TRUE(rig.store.dump(field).has_value());

  // Frame: one flipped byte in slab k's chunk fails its CRC.
  auto frame = compress::write_checkpoint(field, opts);
  ASSERT_TRUE(frame.has_value());
  const auto walked = compress::recover_framed(*frame);
  ASSERT_TRUE(walked.has_value());
  const auto victim_chunk = walked->chunks[kVictim + 1].payload;
  (*frame)[static_cast<std::size_t>(victim_chunk.data() - frame->data()) +
           victim_chunk.size() / 2] ^= 0x40;

  // Store: the same flip in slab k's object on every replica fails its
  // content hash everywhere.
  const std::string path = object_path(slab_object_hash(field, opts, kVictim));
  auto object = rig.s0.read_file(path);
  ASSERT_TRUE(object.has_value());
  std::vector<std::uint8_t> damaged(object->begin(), object->end());
  damaged[damaged.size() / 2] ^= 0x40;
  replace_everywhere(rig, path, damaged);

  expect_agree(rig, *frame);
}

TEST(IncrementalStoreTest, RestoreAgreesWithRecoverOnUndecodableSlab) {
  Rig rig;
  const auto field = ramp_field();
  const auto& opts = rig.opts.checkpoint;
  ASSERT_TRUE(rig.store.dump(field).has_value());

  // Bytes that pass every integrity check but decode to the wrong slab: a
  // valid container of a 100-element field.
  const data::Field stranger{"x", data::Dims::d1(100),
                             std::vector<float>(100, 2.0F)};
  auto codec = compress::make_compressor(opts.codec);
  ASSERT_TRUE(codec.has_value());
  auto wrong = (*codec)->compress(stranger, opts.bound);
  ASSERT_TRUE(wrong.has_value());
  const auto& junk = wrong->container;
  const auto frame = frame_with_slab(field, opts, kVictim, junk);

  // Store: put the junk object under its own hash and point generation
  // 1's slab k at it, re-framing the journal so every CRC still holds.
  const std::uint64_t junk_hash = fnv1a64(junk);
  replace_everywhere(rig, object_path(junk_hash), junk);
  const std::uint64_t old_hash = slab_object_hash(field, opts, kVictim);
  const auto journals = rig.s0.list_files("ckpt/journal.");
  ASSERT_EQ(journals.size(), 1u);
  auto journal = rig.s0.read_file(journals.front());
  ASSERT_TRUE(journal.has_value());
  const std::vector<std::uint8_t> journal_bytes(journal->begin(),
                                                journal->end());
  const auto chunks = compress::recover_framed(journal_bytes);
  ASSERT_TRUE(chunks.has_value());
  compress::FramedWriter writer{compress::kFrameFlagJournal};
  std::size_t patched = 0;
  for (const auto& chunk : chunks->chunks) {
    std::vector<std::uint8_t> payload(chunk.payload.begin(),
                                      chunk.payload.end());
    for (std::size_t i = 0; i + 8 <= payload.size(); ++i) {
      if (std::memcmp(payload.data() + i, &old_hash, 8) == 0) {
        std::memcpy(payload.data() + i, &junk_hash, 8);
        ++patched;
      }
    }
    writer.append_chunk(payload);
  }
  ASSERT_EQ(patched, 1u);
  replace_everywhere(rig, journals.front(), writer.finish());

  expect_agree(rig, frame);

  // Hash-verified (or CRC-verified) bytes that fail to decode keep the
  // transport's verdict: intact bytes, lost slab.
  const auto restored = rig.store.restore(1);
  const auto recovered = compress::recover_checkpoint(frame);
  ASSERT_TRUE(restored.has_value() && recovered.has_value());
  for (const auto* report :
       {static_cast<const compress::RecoveryReport*>(&*restored),
        static_cast<const compress::RecoveryReport*>(&*recovered)}) {
    const auto& v = report->slabs[kVictim];
    EXPECT_EQ(v.frame_state, compress::ChunkState::kIntact);
    EXPECT_FALSE(v.recovered);
    EXPECT_FALSE(v.status.is_ok());
  }
}

}  // namespace
}  // namespace lcp::core
