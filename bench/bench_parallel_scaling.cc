// Ablation A4: shared-memory scaling of the parallel join drivers (a
// step toward the paper's future-work distributed processing).
//
// Reports the scaling of every parallel driver (S-PPJ-B/C/D/F and
// TOPK-S-PPJ-F/S/P; TOPK-S-PPJ-P is the plan kAuto runs); on a
// multi-core host the speedup should track the thread count until the
// per-user work runs out. Each cell is the median of 5 runs, with the
// 2nd and 4th of the sorted runs as its quartiles: one run per cell
// cannot resolve changes under about 15% on a noisy host. The top-k rows
// also print the pairs verified at each thread count (the range over
// the runs): a top-k worker prunes only against what has been found so
// far, so extra threads can add verification work. The per-stage filter
// counters of every run print at exit via the bench_util stats registry.
//
// Usage: bench_parallel_scaling [num_users]

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/sppj_b.h"
#include "core/sppj_c.h"
#include "core/sppj_d.h"
#include "core/sppj_f_parallel.h"
#include "core/topk.h"

int main(int argc, char** argv) {
  using namespace stps;
  using namespace stps::bench;
  const size_t num_users = ArgSize(argc, argv, 1, 400);
  const int thread_counts[] = {1, 2, 4, 8};
  constexpr int kRuns = 5;

  std::printf("Ablation A4: parallel join scaling (%zu users; host has "
              "%u hardware threads)\n\n",
              num_users, std::thread::hardware_concurrency());

  std::printf("Scaling per algorithm (ms, median [quartiles] of %d runs; "
              "GeoText-like preset)\n",
              kRuns);
  std::printf("%-14s %22s %22s %22s %22s %8s\n", "", "1 thread", "2", "4",
              "8", "|R|");
  const ObjectDatabase& db = GetDataset(DatasetKind::kGeoTextLike, num_users);
  const STPSQuery query = DefaultQuery(DatasetKind::kGeoTextLike);
  // `verified` adds a row with the range of JoinStats::pairs_verified per
  // thread count.
  const auto time_variant = [&](const char* name, bool verified,
                                auto&& run) {
    std::printf("%-14s", name);
    size_t result_size = 0;
    std::vector<std::pair<uint64_t, uint64_t>> pairs_verified;
    for (const int threads : thread_counts) {
      std::vector<double> ms;
      uint64_t least = UINT64_MAX;
      uint64_t most = 0;
      for (int i = 0; i < kRuns; ++i) {
        JoinStats stats;
        Timer timer;
        const auto result = run(ParallelOptions{threads}, &stats);
        ms.push_back(timer.ElapsedMillis());
        result_size = result.size();
        RecordJoinStats(name, stats);
        least = std::min(least, stats.pairs_verified);
        most = std::max(most, stats.pairs_verified);
      }
      std::sort(ms.begin(), ms.end());
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.1f [%.1f..%.1f]", ms[kRuns / 2],
                    ms[kRuns / 4], ms[kRuns - 1 - kRuns / 4]);
      std::printf(" %22s", cell);
      pairs_verified.emplace_back(least, most);
    }
    std::printf(" %8zu\n", result_size);
    if (!verified) return;
    std::printf("%-14s", "  verified");
    for (const auto& [least, most] : pairs_verified) {
      char cell[64];
      if (least == most) {
        std::snprintf(cell, sizeof(cell), "%llu",
                      static_cast<unsigned long long>(least));
      } else {
        std::snprintf(cell, sizeof(cell), "%llu..%llu",
                      static_cast<unsigned long long>(least),
                      static_cast<unsigned long long>(most));
      }
      std::printf(" %22s", cell);
    }
    std::printf("\n");
  };
  time_variant("S-PPJ-B", false,
               [&](const ParallelOptions& p, JoinStats* s) {
                 return SPPJBParallel(db, query, p, s);
               });
  time_variant("S-PPJ-C", false,
               [&](const ParallelOptions& p, JoinStats* s) {
                 return SPPJCParallel(db, query, p, s);
               });
  time_variant("S-PPJ-D", false,
               [&](const ParallelOptions& p, JoinStats* s) {
                 return SPPJDParallel(db, query, SPPJDOptions{}, p, s);
               });
  time_variant("S-PPJ-F", false,
               [&](const ParallelOptions& p, JoinStats* s) {
                 return SPPJFParallel(db, query, p, s);
               });
  const TopKQuery topk_query{query.eps_loc, query.eps_doc, 100};
  for (const auto& [name, variant] :
       {std::pair{"TOPK-S-PPJ-F", TopKVariant::kF},
        std::pair{"TOPK-S-PPJ-S", TopKVariant::kS},
        std::pair{"TOPK-S-PPJ-P", TopKVariant::kP}}) {
    time_variant(name, true, [&](const ParallelOptions& p, JoinStats* s) {
      return TopKSTPSJoinParallel(db, topk_query, variant, p, s);
    });
  }
  return 0;
}
