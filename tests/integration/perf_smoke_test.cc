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
