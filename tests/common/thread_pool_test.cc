#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace stps {
namespace {

TEST(ThreadPoolTest, ConstructionAndTeardown) {
  for (const int n : {1, 2, 3, 8}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }  // destructor must join cleanly with no work submitted
}

TEST(ThreadPoolTest, TeardownRightAfterParallelFor) {
  // The destructor joins at once: a worker may still be finishing its
  // completion notification of the batch that just returned.
  std::atomic<int> ran{0};
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    pool.ParallelForEach(0, 64, 1, [&ran](size_t, int) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 50 * 64);
}

class ThreadPoolParamTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolParamTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  for (const size_t grain : {size_t{0}, size_t{1}, size_t{7}, size_t{100}}) {
    const size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelForEach(0, n, grain, [&hits](size_t i, int worker) {
      ASSERT_GE(worker, 0);
      hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " grain=" << grain;
    }
  }
}

TEST_P(ThreadPoolParamTest, ChunksPartitionTheRange) {
  ThreadPool pool(GetParam());
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(10, 273, 16,
                   [&](size_t begin, size_t end, int worker) {
                     ASSERT_LT(begin, end);
                     ASSERT_GE(worker, 0);
                     ASSERT_LT(worker, pool.num_threads());
                     std::lock_guard<std::mutex> lock(mu);
                     chunks.push_back({begin, end});
                   });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, 10u);
  EXPECT_EQ(chunks.back().second, 273u);
  for (size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);  // gap- and overlap-free
  }
}

TEST_P(ThreadPoolParamTest, EmptyRangeIsANoOp) {
  ThreadPool pool(GetParam());
  bool ran = false;
  pool.ParallelFor(5, 5, 1, [&ran](size_t, size_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST_P(ThreadPoolParamTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(GetParam());
  const size_t outer = 8, inner = 50;
  std::vector<std::atomic<int>> hits(outer * inner);
  for (auto& h : hits) h.store(0);
  pool.ParallelForEach(0, outer, 1, [&](size_t i, int) {
    pool.ParallelForEach(0, inner, 4, [&, i](size_t j, int) {
      hits[i * inner + j].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST_P(ThreadPoolParamTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(GetParam());
  EXPECT_THROW(
      pool.ParallelForEach(0, 100, 1,
                           [](size_t i, int) {
                             if (i == 37) throw std::runtime_error("boom");
                           }),
      std::runtime_error);
  // The pool must still work after a failed batch.
  std::atomic<int> sum{0};
  pool.ParallelForEach(0, 10, 1,
                       [&sum](size_t i, int) { sum.fetch_add(int(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST_P(ThreadPoolParamTest, WorkerSlotsAreDistinctPerConcurrentTask) {
  ThreadPool pool(GetParam());
  // Worker ids must always be a valid per-pool slot; record who ran what.
  std::mutex mu;
  std::set<int> seen;
  pool.ParallelForEach(0, 200, 1, [&](size_t, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, pool.num_threads());
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(worker);
  });
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), static_cast<size_t>(pool.num_threads()));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ThreadPoolParamTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ThreadPoolTest, SingleThreadRunsInAscendingOrderOnCaller) {
  // num_threads == 1 is the serial reference: same thread, ascending.
  ThreadPool pool(1);
  std::vector<size_t> visited;
  pool.ParallelForEach(0, 50, 7, [&visited](size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    visited.push_back(i);
  });
  ASSERT_EQ(visited.size(), 50u);
  for (size_t i = 0; i < visited.size(); ++i) {
    EXPECT_EQ(visited[i], i);
  }
}

}  // namespace
}  // namespace stps
