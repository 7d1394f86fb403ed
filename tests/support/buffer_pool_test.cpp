#include "support/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace lcp {
namespace {

TEST(ScratchPoolTest, AcquireReusesReleasedCapacity) {
  ScratchPool<std::uint32_t> pool;
  auto buf = pool.acquire(1024);
  EXPECT_EQ(pool.misses(), 1u);
  buf.resize(1024, 7);
  const auto* data = buf.data();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.retained(), 1u);

  auto again = pool.acquire();
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 1024u);
  EXPECT_EQ(again.data(), data);  // same allocation came back
}

TEST(ScratchPoolTest, PoisonStampsLeadingBytesOnly) {
  // Use-after-release must read deterministic garbage, not stale data:
  // release() stamps kPoisonByte over the leading bytes (poison_buffer is
  // the exact routine it runs before clearing the buffer).
  std::vector<std::uint8_t> buf(256, 0x5A);
  detail::poison_buffer(buf);
  for (std::size_t i = 0; i < kPoisonBytes; ++i) {
    EXPECT_EQ(buf[i], kPoisonByte) << "offset " << i;
  }
  for (std::size_t i = kPoisonBytes; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], 0x5A) << "offset " << i;
  }
}

TEST(ScratchPoolTest, PoisonCoversShortBuffers) {
  std::vector<std::uint32_t> buf(4, 0xDEADBEEF);  // 16 bytes < kPoisonBytes
  detail::poison_buffer(buf);
  for (std::uint32_t v : buf) {
    EXPECT_EQ(v, 0xDBDBDBDBu);
  }
}

TEST(ScratchPoolTest, RetainsAtMostMaxBuffers) {
  ScratchPool<float> pool;
  for (std::size_t i = 0; i < ScratchPool<float>::kMaxRetained + 4; ++i) {
    auto buf = pool.acquire(16);
    buf.resize(16);
    pool.release(std::move(buf));
  }
  EXPECT_LE(pool.retained(), ScratchPool<float>::kMaxRetained);
}

TEST(ScratchPoolTest, ZeroCapacityBuffersAreNotRetained) {
  ScratchPool<int> pool;
  pool.release(std::vector<int>{});
  EXPECT_EQ(pool.retained(), 0u);
}

TEST(ScratchLeaseTest, RoundTripsThroughPool) {
  ScratchPool<std::uint32_t> pool;
  {
    ScratchLease<std::uint32_t> lease{64, pool};
    lease->assign(64, 9);
    EXPECT_EQ(lease.get().size(), 64u);
    EXPECT_EQ((*lease)[0], 9u);
  }
  EXPECT_EQ(pool.retained(), 1u);
  {
    ScratchLease<std::uint32_t> lease{0, pool};
    EXPECT_TRUE(lease->empty());
  }
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(ScratchLeaseTest, ThreadLocalPoolsAreIndependent) {
  // Two threads exercising local() pools concurrently must never share
  // buffers; each sees its own hit/miss stream. Run under
  // -DLCP_SANITIZE=thread this also vets that local() involves no races.
  auto worker = [] {
    for (int i = 0; i < 200; ++i) {
      ScratchLease<std::uint64_t> a{512};
      a->assign(512, static_cast<std::uint64_t>(i));
      ScratchLease<std::uint64_t> b{128};
      b->assign(128, static_cast<std::uint64_t>(i) * 3);
      ASSERT_EQ(a.get()[0], static_cast<std::uint64_t>(i));
      ASSERT_EQ(b.get()[77], static_cast<std::uint64_t>(i) * 3);
    }
  };
  std::thread t1{worker};
  std::thread t2{worker};
  t1.join();
  t2.join();
}

}  // namespace
}  // namespace lcp
