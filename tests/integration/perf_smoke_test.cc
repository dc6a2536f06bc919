// Performance smoke test: the paper's headline claims asserted as
// regression tests over JoinStats work counters instead of wall-clock.
// Counter budgets are exactly reproducible — same database, same
// counters, on any machine at any load — so the test cannot flake under
// scheduler noise, while a regression that disables a filter still moves
// the counters by an order of magnitude and fails the budget.

#include <gtest/gtest.h>

#include "core/join_stats.h"
#include "core/sppj_c.h"
#include "core/sppj_f.h"
#include "core/stpsjoin.h"
#include "core/topk.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "sketch/sketch.h"
#include "sketch/sketch_join.h"

namespace stps {
namespace {

TEST(PerfSmokeTest, SPPJFBeatsBaselineOnTwitterLike) {
  // Headline claim: filter-and-refine S-PPJ-F does far fewer exact pair
  // verifications than the S-PPJ-C baseline, which verifies every
  // spatially close candidate. The measured gap is ~10-30x; the budget
  // demands only 2x.
  const ObjectDatabase db = GenerateDataset(
      PresetSpec(DatasetKind::kTwitterLike, 150, 1));
  const STPSQuery query = DefaultQuery(DatasetKind::kTwitterLike);

  JoinStats baseline_stats;
  const auto baseline = SPPJC(db, query, &baseline_stats);

  JoinStats filtered_stats;
  const auto filtered = SPPJF(db, query, &filtered_stats);

  ASSERT_EQ(baseline.size(), filtered.size());
  EXPECT_GT(filtered_stats.pairs_pruned_count, 0u);
  EXPECT_LT(filtered_stats.pairs_verified * 2, baseline_stats.pairs_verified)
      << "S-PPJ-F (" << filtered_stats.pairs_verified
      << " verifications) no longer clearly beats S-PPJ-C ("
      << baseline_stats.pairs_verified << " verifications)";
}

TEST(PerfSmokeTest, SigmaBarFilterActuallyPrunes) {
  // The A1 ablation as a regression guard: disabling the sigma_bar bound
  // must cost at least 1.5x more exact verifications on a
  // pruning-friendly workload.
  const ObjectDatabase db = GenerateDataset(
      PresetSpec(DatasetKind::kTwitterLike, 150, 2));
  const STPSQuery query = DefaultQuery(DatasetKind::kTwitterLike);

  JoinStats with_stats;
  SPPJFAblation(db, query, /*use_sigma_bound=*/true,
                /*use_refine_bound=*/true, &with_stats);

  JoinStats without_stats;
  SPPJFAblation(db, query, /*use_sigma_bound=*/false,
                /*use_refine_bound=*/true, &without_stats);

  EXPECT_GT(with_stats.pairs_pruned_count, 0u);
  EXPECT_EQ(without_stats.pairs_pruned_count, 0u)
      << "ablation left the sigma_bar bound enabled";
  EXPECT_LE(with_stats.pairs_verified * 3, without_stats.pairs_verified * 2)
      << "sigma_bar bound stopped pruning: " << with_stats.pairs_verified
      << " verifications with vs " << without_stats.pairs_verified
      << " without";
}

TEST(PerfSmokeTest, SweepWorkCountersArePinned) {
  // perfbench sweep_sparse's 12 queries on its base corpus, at one thread,
  // through the explicit S-PPJ-F and TOPK-S-PPJ-P. The counters are exact
  // on any machine, so they pin the filter's work itself: a filter that
  // lets more pairs through or a looser sigma_bar bound moves them even
  // when every result stays right.
  struct Pinned {
    bool topk;
    double eps_loc;
    double eps;  // eps_doc, and eps_u for joins
    uint64_t candidate, pruned_count, verified, cells_visited, matches;
  };
  const Pinned kPinned[] = {
      {false, 0.001, 0.3, 26268, 25561, 707, 110792, 173},
      {true, 0.001, 0.3, 735, 637, 98, 8379, 47},
      {false, 0.001, 0.4, 26268, 26087, 181, 108012, 81},
      {true, 0.001, 0.4, 735, 637, 98, 8377, 36},
      {false, 0.001, 0.5, 26268, 26115, 153, 107884, 81},
      {true, 0.001, 0.5, 735, 637, 98, 8377, 36},
      {false, 0.004, 0.3, 50475, 48908, 1567, 114162, 534},
      {true, 0.004, 0.3, 1212, 1059, 153, 7153, 92},
      {false, 0.004, 0.4, 50475, 50141, 334, 107051, 101},
      {true, 0.004, 0.4, 1212, 1059, 153, 7471, 57},
      {false, 0.004, 0.5, 50475, 50230, 245, 106650, 100},
      {true, 0.004, 0.5, 1212, 1059, 153, 7471, 57},
  };
  const ObjectDatabase db = GenerateDataset(
      PresetSpec(DatasetKind::kCheckinSparse, 1600, 20160315));
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(testing::Message() << (p.topk ? "topk" : "join") << " "
                                    << p.eps_loc << " " << p.eps);
    JoinStats stats;
    if (p.topk) {
      TopKSTPSJoin(db, TopKQuery{p.eps_loc, p.eps, 10}, TopKVariant::kP,
                   &stats);
    } else {
      SPPJF(db, STPSQuery{p.eps_loc, p.eps, p.eps}, &stats);
    }
    EXPECT_EQ(stats.pairs_candidate, p.candidate);
    EXPECT_EQ(stats.pairs_pruned_count, p.pruned_count);
    EXPECT_EQ(stats.pairs_verified, p.verified);
    EXPECT_EQ(stats.cells_visited, p.cells_visited);
    EXPECT_EQ(stats.matches_found, p.matches);
  }
}

TEST(PerfSmokeTest, SketchCandidatesUndercutVerifyEverythingBaseline) {
  // The standalone sketch layer's reason to exist: on a sparse
  // many-users workload its band-index candidate set — every one of
  // which is exactly verified — must stay well below the S-PPJ-C
  // baseline's verification count while producing the same matches. (On dense city-extent
  // corpora nearly every pair is a true candidate; there the sketch has
  // nothing to skip, which is why this budget uses the sparse preset.)
  const ObjectDatabase db = GenerateDataset(
      PresetSpec(DatasetKind::kCheckinSparse, 400, 3));
  const STPSQuery query = DefaultQuery(DatasetKind::kCheckinSparse);

  JoinStats baseline_stats;
  const auto baseline = SPPJC(db, query, &baseline_stats);

  JoinStats sketch_stats;
  const auto sketched = SketchSTPSJoin(db, *BuildUserSketches(db), query,
                                       ParallelOptions{}, &sketch_stats);

  ASSERT_EQ(baseline.size(), sketched.size());
  EXPECT_EQ(sketch_stats.sketch_candidate_pairs, sketch_stats.pairs_verified);
  EXPECT_LT(sketch_stats.pairs_verified * 2, baseline_stats.pairs_verified)
      << "sketch candidates (" << sketch_stats.pairs_verified
      << ") no longer undercut S-PPJ-C (" << baseline_stats.pairs_verified
      << ")";
}

}  // namespace
}  // namespace stps
