#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lcp {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool{3};
  EXPECT_EQ(pool.worker_count(), 3u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool{2};
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  pool.parallel_for(7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForWorksWithSingleWorker) {
  ThreadPool pool{1};
  std::atomic<long> sum{0};
  pool.parallel_for(1, 101, [&](std::size_t i) {
    sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool{2};
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 42) {
                            throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, NestedSizesAndLargeRange) {
  ThreadPool pool{4};
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 100000, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 100000u);
}

TEST(ThreadPoolTest, GrainSizesCoverEveryIndexExactlyOnce) {
  constexpr std::size_t kRange = 1234;
  ThreadPool pool{4};
  for (std::size_t grain : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{64}, std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(kRange);
    pool.parallel_for(
        0, kRange, [&](std::size_t i) { ++hits[i]; }, grain);
    for (std::size_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
    }
  }
}

TEST(ThreadPoolTest, OddWorkerCountsWithNonDividingGrain) {
  // 0 means hardware concurrency; 7 deliberately does not divide the range
  // or align with the chunking.
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
    ThreadPool pool{workers};
    EXPECT_GE(pool.worker_count(), 1u);
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(
        0, 101, [&](std::size_t i) { sum += i; }, 13);
    EXPECT_EQ(sum.load(), 5050u) << workers;
  }
}

TEST(ThreadPoolTest, PoolStaysUsableAfterParallelForThrows) {
  ThreadPool pool{4};
  EXPECT_THROW(pool.parallel_for(
                   0, 1000,
                   [](std::size_t i) {
                     if (i == 500) {
                       throw std::logic_error("boom");
                     }
                   },
                   8),
               std::logic_error);
  std::atomic<int> n{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPoolTest, FirstExceptionStopsTheWalkEarly) {
  // The first throw moves the cursor past the end, so the other threads
  // stop claiming chunks instead of running the rest of the range.
  constexpr std::size_t kRange = 1000000;
  ThreadPool pool{3};
  std::atomic<std::size_t> calls{0};
  EXPECT_THROW(pool.parallel_for(
                   0, kRange,
                   [&](std::size_t) {
                     if (calls.fetch_add(1) == 0) {
                       throw std::runtime_error("first");
                     }
                   },
                   1),
               std::runtime_error);
  EXPECT_LT(calls.load(), kRange / 2);
}

TEST(ThreadPoolTest, NestedParallelForCoversEveryPairExactlyOnce) {
  // A body that calls parallel_for on its own pool runs the inner range
  // inline instead of waiting for a team that is busy running it.
  constexpr std::size_t kOuter = 24;
  constexpr std::size_t kInner = 37;
  ThreadPool pool{3};
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(
      0, kOuter,
      [&](std::size_t i) {
        pool.parallel_for(0, kInner,
                          [&](std::size_t j) { ++hits[i * kInner + j]; });
      },
      1);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "pair " << k / kInner << ", " << k % kInner;
  }
}

TEST(ThreadPoolTest, ConcurrentCallersLoseNoIndex) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRange = 3000;
  constexpr int kRounds = 20;
  ThreadPool pool{2};
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kRange);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &h = hits[c]] {
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(0, kRange, [&](std::size_t i) { ++h[i]; }, 7);
      }
    });
  }
  for (auto& caller : callers) {
    caller.join();
  }
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(hits[c][i].load(), kRounds) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ComputesOnWorkersPlusCallerThreads) {
  // Every one of the w + 1 bodies waits at a barrier of w + 1 participants,
  // so the walk completes only if w workers and the caller each run one.
  for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool{workers};
    std::barrier all_threads{static_cast<std::ptrdiff_t>(workers + 1)};
    std::atomic<std::size_t> passed{0};
    pool.parallel_for(
        0, workers + 1,
        [&](std::size_t) {
          all_threads.arrive_and_wait();
          ++passed;
        },
        1);
    EXPECT_EQ(passed.load(), workers + 1) << workers;
  }
}

}  // namespace
}  // namespace lcp
