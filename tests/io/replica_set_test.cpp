// ReplicaSet suite: quorum-gated fan-out writes, verified reads with
// rotation failover, per-replica fault injection, and the replication
// byte accounting the transit energy model prices.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "io/fault.hpp"
#include "io/nfs_server.hpp"
#include "io/replica_set.hpp"
#include "support/checksum.hpp"

namespace lcp::io {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt = 0) {
  std::vector<std::uint8_t> out(n);
  std::iota(out.begin(), out.end(), salt);
  return out;
}

struct Rig {
  NfsServer s0, s1, s2;
  ReplicaSet set{{&s0, &s1, &s2}, {}};

  NfsServer& server(std::size_t i) { return set.server(i); }
};

TEST(ReplicaSetTest, WriteFansOutToEveryReplica) {
  Rig rig;
  const auto data = pattern(1000);
  const auto outcome = rig.set.write_file("f", data);
  ASSERT_TRUE(outcome.ok()) << outcome.status.message();
  EXPECT_EQ(outcome.acks, 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    const auto stored = rig.server(r).read_file("f");
    ASSERT_TRUE(stored.has_value());
    EXPECT_TRUE(std::equal(data.begin(), data.end(), stored->begin(),
                           stored->end()));
  }
  // Replication tax: 3x the logical bytes went on the wire.
  EXPECT_EQ(rig.set.bytes_replicated().bytes(), 3u * data.size());
}

TEST(ReplicaSetTest, DefaultQuorumIsMajority) {
  Rig rig;
  EXPECT_EQ(rig.set.write_quorum(), 2u);
  NfsServer lone;
  ReplicaSet single{{&lone}, {}};
  EXPECT_EQ(single.write_quorum(), 1u);
}

TEST(ReplicaSetTest, WriteSucceedsWithOneReplicaDown) {
  Rig rig;
  rig.set.set_replica_down(1, true);
  const auto outcome = rig.set.write_file("f", pattern(100));
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.acks, 2u);
  EXPECT_FALSE(outcome.per_replica[1].is_ok());
  EXPECT_EQ(outcome.per_replica[1].code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(rig.server(1).has_file("f"));
  // A down replica costs no wire traffic.
  EXPECT_EQ(rig.set.bytes_replicated().bytes(), 200u);
}

TEST(ReplicaSetTest, WriteFailsBelowQuorumWithTypedStatus) {
  Rig rig;
  rig.set.set_replica_down(0, true);
  rig.set.set_replica_down(2, true);
  const auto outcome = rig.set.write_file("f", pattern(100));
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.acks, 1u);
  EXPECT_EQ(outcome.status.code(), ErrorCode::kUnavailable);
  EXPECT_NE(outcome.status.message().find("quorum"), std::string::npos);
  // The surviving replica still holds its copy (no rollback semantics).
  EXPECT_TRUE(rig.server(1).has_file("f"));
}

TEST(ReplicaSetTest, ReadPrefersRequestedReplica) {
  Rig rig;
  ASSERT_TRUE(rig.set.write_file("f", pattern(64)).ok());
  const auto got = rig.set.read_file("f", /*preferred=*/2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->replica, 2u);
  EXPECT_EQ(got->failovers, 0u);
}

TEST(ReplicaSetTest, ReadFailsOverPastDownReplica) {
  Rig rig;
  ASSERT_TRUE(rig.set.write_file("f", pattern(64)).ok());
  rig.set.set_replica_down(1, true);
  const auto got = rig.set.read_file("f", /*preferred=*/1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->replica, 2u);
  EXPECT_EQ(got->failovers, 1u);
  EXPECT_EQ(rig.set.read_failovers(), 1u);
}

TEST(ReplicaSetTest, ReadFailsOverPastCorruptCopy) {
  Rig rig;
  const auto data = pattern(64);
  ASSERT_TRUE(rig.set.write_file("f", data).ok());
  const std::uint32_t want = crc32c(data);
  // Replace replica 0's copy with garbage; the verifier must reject it
  // and the read must land on replica 1.
  ASSERT_TRUE(rig.server(0).remove_file("f").has_value());
  ASSERT_TRUE(
      rig.server(0).handle_write_at("f", 0, pattern(64, 7)).has_value());
  const auto got = rig.set.read_file(
      "f", /*preferred=*/0, [want](std::span<const std::uint8_t> bytes) {
        if (crc32c(bytes) != want) {
          return Status::corrupt_data("crc mismatch");
        }
        return Status::ok();
      });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->replica, 1u);
  EXPECT_EQ(got->failovers, 1u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), got->bytes.begin(),
                         got->bytes.end()));
  // The rejected fetch still moved bytes: both copies were paid for.
  EXPECT_EQ(rig.set.bytes_fetched(), 128u);
}

TEST(ReplicaSetTest, ReadFailsWhenEveryCopyRejected) {
  Rig rig;
  ASSERT_TRUE(rig.set.write_file("f", pattern(64)).ok());
  const auto got = rig.set.read_file(
      "f", 0, [](std::span<const std::uint8_t>) {
        return Status::corrupt_data("always reject");
      });
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(got.status().message().find("all 3 replicas"), std::string::npos);
}

TEST(ReplicaSetTest, ReadOfMissingFileIsTypedError) {
  Rig rig;
  const auto got = rig.set.read_file("nope");
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ReplicaSetTest, RemoveFileFreesEveryCopyAndSkipsMissing) {
  Rig rig;
  ASSERT_TRUE(rig.set.write_file("f", pattern(100)).ok());
  // Replica 1 already lost its copy; remove must not fail on it.
  ASSERT_TRUE(rig.server(1).remove_file("f").has_value());
  const auto freed = rig.set.remove_file("f");
  ASSERT_TRUE(freed.has_value());
  EXPECT_EQ(*freed, 200u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_FALSE(rig.server(r).has_file("f"));
  }
}

TEST(ReplicaSetTest, ConcurrentDownToggleDuringReads) {
  // Regression for the data race the -Wthread-safety migration flushed
  // out: Replica::down was a plain bool, so an admin thread flipping it
  // raced every reader probing the same flag mid-failover. The flag is
  // atomic now; under tsan this test fails on the old code.
  Rig rig;
  const auto data = pattern(256);
  ASSERT_TRUE(rig.set.write_file("f", data).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads_ok{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Rotate the preferred replica so every reader keeps probing the
        // toggled flag on replica 0 from a different failover position.
        const auto got = rig.set.read_file("f", t % 3);
        // Replicas 1 and 2 stay up, so the read must always verify.
        ASSERT_TRUE(got.has_value()) << got.status().message();
        ASSERT_EQ(got->bytes.size(), data.size());
        reads_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Keep toggling until the readers have demonstrably overlapped with the
  // flips (a fixed toggle count can finish before the first reader thread
  // is even scheduled); readers always make progress, so this terminates.
  std::size_t toggles = 0;
  while (toggles < 2000 ||
         reads_ok.load(std::memory_order_relaxed) < 300) {
    rig.set.set_replica_down(0, (toggles & 1) == 0);
    ++toggles;
  }
  rig.set.set_replica_down(0, false);
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) {
    reader.join();
  }

  EXPECT_GE(reads_ok.load(), 300u);
  EXPECT_FALSE(rig.set.replica_down(0));
}

TEST(ReplicaSetTest, PerReplicaFaultInjectorIsIndependent) {
  Rig rig;
  // Replica 0 is hard-down via an episode covering every chunk; the other
  // replicas see a clean link. The write must still reach quorum.
  FaultPlan plan;
  plan.episodes.push_back({FaultKind::kServerUnavailable, 0, 1u << 20,
                           kFaultPersistsForever});
  FaultInjector injector{plan};
  rig.set.attach_fault_injector(0, &injector);
  const auto outcome = rig.set.write_file("f", pattern(1000));
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.acks, 2u);
  EXPECT_FALSE(outcome.per_replica[0].is_ok());
  EXPECT_EQ(outcome.per_replica[0].code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(rig.server(1).has_file("f"));
  EXPECT_TRUE(rig.server(2).has_file("f"));
}

TEST(ReplicaSetTest, TransientFaultAbsorbedByRetries) {
  Rig rig;
  // One dropped attempt on replica 2's first chunk; backoff rides it out
  // and all three replicas converge byte-identically.
  FaultPlan plan;
  plan.targeted.push_back({0, FaultKind::kDrop, 1});
  FaultInjector injector{plan};
  rig.set.attach_fault_injector(2, &injector);
  const auto data = pattern(500);
  const auto outcome = rig.set.write_file("f", data);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.acks, 3u);
  const auto stored = rig.server(2).read_file("f");
  ASSERT_TRUE(stored.has_value());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), stored->begin(),
                         stored->end()));
  EXPECT_GE(rig.set.client(2).retry_stats().retries, 1u);
}

}  // namespace
}  // namespace lcp::io
