#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace stps {
namespace {

class ThreadPoolParamTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolParamTest, ParallelForCoversEveryIndexExactlyOnce) {
  const int threads = GetParam();
  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{0, 1000}, {10, 273}, {0, 3}, {7, 8}}) {
    std::vector<std::atomic<int>> hits(end);
    for (auto& h : hits) h.store(0);
    ParallelForEach(threads, begin, end, [&hits](size_t i, int) {
      hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < end; ++i) {
      EXPECT_EQ(hits[i].load(), i >= begin ? 1 : 0)
          << "i=" << i << " range=[" << begin << ", " << end << ")";
    }
  }
}

TEST_P(ThreadPoolParamTest, EmptyRangeIsANoOp) {
  bool ran = false;
  ParallelForEach(GetParam(), 5, 5, [&ran](size_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST_P(ThreadPoolParamTest, WorkerSlotsAreDistinctPerConcurrentTask) {
  const int threads = GetParam();
  // A slot marks itself busy for the length of a call; a second call on
  // the same slot at the same time would find it busy.
  std::vector<std::atomic<int>> busy(static_cast<size_t>(threads));
  for (auto& b : busy) b.store(0);
  ParallelForEach(threads, 0, 2000, [&](size_t, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, threads);
    std::atomic<int>& mine = busy[static_cast<size_t>(worker)];
    EXPECT_EQ(mine.exchange(1), 0) << "slot " << worker;
    std::this_thread::yield();
    mine.store(0);
  });
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ThreadPoolParamTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ThreadPoolTest, EachWorkerClaimsInAscendingOrder) {
  // The top-k drivers rely on every worker running its users in
  // processing order, so each slot's indices must ascend.
  for (const int threads : {2, 4, 8}) {
    std::mutex mu;
    std::vector<std::vector<size_t>> visited(static_cast<size_t>(threads));
    ParallelForEach(threads, 0, 4000, [&](size_t i, int worker) {
      std::this_thread::yield();
      std::lock_guard<std::mutex> lock(mu);
      visited[static_cast<size_t>(worker)].push_back(i);
    });
    size_t total = 0;
    for (size_t slot = 0; slot < visited.size(); ++slot) {
      const std::vector<size_t>& seq = visited[slot];
      total += seq.size();
      for (size_t j = 1; j < seq.size(); ++j) {
        ASSERT_LT(seq[j - 1], seq[j])
            << "threads=" << threads << " slot=" << slot << " step " << j;
      }
    }
    EXPECT_EQ(total, 4000u);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInAscendingOrderOnCaller) {
  // threads == 1 is the serial reference: the caller's thread, ascending.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> visited;
  ParallelForEach(1, 0, 50, [&](size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    visited.push_back(i);
  });
  ASSERT_EQ(visited.size(), 50u);
  for (size_t i = 0; i < visited.size(); ++i) {
    EXPECT_EQ(visited[i], i);
  }
}

}  // namespace
}  // namespace stps
