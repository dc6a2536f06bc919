#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/macros.h"

namespace stps {

void ParallelForEach(int threads, size_t begin, size_t end,
                     const std::function<void(size_t, int)>& fn) {
  STPS_CHECK(threads >= 1);
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t chunk =
      std::max<size_t>(1, n / (static_cast<size_t>(threads) * 8));
  // No more threads than chunks: a thread with nothing to claim would
  // only be started and joined.
  const int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(threads), (n + chunk - 1) / chunk));
  if (workers == 1) {
    for (size_t i = begin; i < end; ++i) fn(i, 0);
    return;
  }

  std::atomic<size_t> cursor{0};
  const auto run = [&](int worker) noexcept {
    for (;;) {
      const size_t lo = cursor.fetch_add(chunk);
      if (lo >= n) return;
      const size_t hi = std::min(n, lo + chunk);
      for (size_t i = begin + lo; i < begin + hi; ++i) fn(i, worker);
    }
  };
  std::vector<std::thread> started;
  started.reserve(static_cast<size_t>(workers - 1));
  for (int worker = 1; worker < workers; ++worker) {
    started.emplace_back(run, worker);
  }
  run(0);
  for (std::thread& thread : started) thread.join();
}

}  // namespace stps
