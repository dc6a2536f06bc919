// Ablation A4: shared-memory scaling of the parallel join drivers (a
// step toward the paper's future-work distributed processing).
//
// Reports the scaling of every parallel driver (S-PPJ-B/C/D/F and
// TOPK-S-PPJ-F/S/P; TOPK-S-PPJ-P is the plan kAuto runs); on a
// multi-core host the speedup should track the thread count until the
// per-user work runs out. The top-k rows also print the pairs verified
// at each thread count: a top-k worker prunes only against what has been
// found so far, so extra threads can add verification work. The
// per-stage filter counters print at exit via the bench_util stats
// registry.
//
// Usage: bench_parallel_scaling [num_users]

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

  std::printf("Ablation A4: parallel join scaling (%zu users; host has "
              "%u hardware threads)\n\n",
              num_users, std::thread::hardware_concurrency());

  std::printf("Scaling per algorithm (ms; GeoText-like preset)\n");
  std::printf("%-14s %10s %10s %10s %10s %8s\n", "", "1 thread", "2", "4",
              "8", "|R|");
  const ObjectDatabase& db = GetDataset(DatasetKind::kGeoTextLike, num_users);
  const STPSQuery query = DefaultQuery(DatasetKind::kGeoTextLike);
  // `verified` adds a row with JoinStats::pairs_verified per thread count.
  const auto time_variant = [&](const char* name, bool verified,
                                auto&& run) {
    std::printf("%-14s", name);
    size_t result_size = 0;
    std::vector<uint64_t> pairs_verified;
    for (const int threads : thread_counts) {
      JoinStats stats;
      Timer timer;
      const auto result = run(ParallelOptions{threads}, &stats);
      result_size = result.size();
      std::printf(" %10.1f", timer.ElapsedMillis());
      RecordJoinStats(name, stats);
      pairs_verified.push_back(stats.pairs_verified);
    }
    std::printf(" %8zu\n", result_size);
    if (!verified) return;
    std::printf("%-14s", "  verified");
    for (const uint64_t v : pairs_verified) {
      std::printf(" %10llu", static_cast<unsigned long long>(v));
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
