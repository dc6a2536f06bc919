// Planner test suite: differential correctness of kAuto against the
// brute-force oracle (any thread budget — the planner may only ever be
// wrong about speed), the guaranteed properties of the
// selectivity estimator (finite, non-negative, monotone in each
// threshold), the all-pairs pricing of S-PPJ-B/C and the plan a fresh
// process picks on the sparse presets, the online-feedback EWMA
// (convergence, candidate-ratio learning, per-kind fallbacks, the
// snapshot, plan-switch detection), precondition-respecting plan
// enumeration, Explain output, and thread-safety of the shared feedback
// map (this test runs under TSan in scripts/check_all.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/stpsjoin.h"
#include "datagen/dataset_stats.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "planner/cost_model.h"
#include "planner/feedback.h"
#include "planner/planner.h"
#include "planner/planner_stats.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;
using testing_util::SameResults;

// Fuzzed database family: uniform-ish, hotspot-heavy, and collision-heavy
// (tiny vocabulary, stacked locations) instances.
ObjectDatabase FuzzDb(uint64_t seed, int family) {
  RandomDbSpec spec;
  spec.seed = seed;
  switch (family % 3) {
    case 0:  // mostly uniform
      spec.num_users = 25;
      spec.hotspot_probability = 0.2;
      spec.vocabulary = 40;
      break;
    case 1:  // hotspot-heavy
      spec.num_users = 30;
      spec.num_hotspots = 3;
      spec.hotspot_sigma = 0.01;
      spec.hotspot_probability = 0.95;
      break;
    default:  // collision-heavy: tiny vocabulary, near-stacked points
      spec.num_users = 20;
      spec.vocabulary = 6;
      spec.num_hotspots = 2;
      spec.hotspot_sigma = 0.002;
      spec.hotspot_probability = 0.9;
      break;
  }
  return BuildRandomDatabase(spec);
}

class PlannerDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { PlannerFeedback::Global().Reset(); }
};

TEST_P(PlannerDifferentialTest, AutoJoinMatchesBruteForce) {
  Rng rng(GetParam());
  for (int family = 0; family < 3; ++family) {
    const ObjectDatabase db = FuzzDb(rng.Next(), family);
    for (int round = 0; round < 3; ++round) {
      STPSQuery query;
      query.eps_loc = rng.Uniform(0.01, 0.3);
      query.eps_doc = rng.Uniform(0.1, 0.9);
      query.eps_u = rng.Uniform(0.05, 0.8);
      const auto expected = BruteForceSTPSJoin(db, query);
      for (const int threads : {1, 2, 8}) {
        JoinOptions options;
        options.algorithm = JoinAlgorithm::kAuto;
        options.threads = threads;
        JoinStats stats;
        const auto got = RunSTPSJoin(db, query, options, &stats);
        ASSERT_TRUE(SameResults(got, expected, /*tolerance=*/0.0))
            << "family=" << family << " threads=" << threads
            << " eps_loc=" << query.eps_loc << " eps_doc=" << query.eps_doc
            << " eps_u=" << query.eps_u;
        // The chosen plan's counters still satisfy the accounting
        // invariant, whatever shape ran.
        EXPECT_EQ(stats.pairs_candidate,
                  stats.pairs_pruned_count + stats.pairs_verified);
        EXPECT_EQ(stats.matches_found, expected.size());
      }
    }
  }
}

TEST_P(PlannerDifferentialTest, AutoTopKMatchesBruteForce) {
  Rng rng(GetParam() + 777);
  for (int family = 0; family < 3; ++family) {
    const ObjectDatabase db = FuzzDb(rng.Next(), family);
    TopKQuery query;
    query.eps_loc = rng.Uniform(0.01, 0.3);
    query.eps_doc = rng.Uniform(0.1, 0.9);
    query.k = 1 + rng.NextBelow(20);
    const auto expected = BruteForceTopK(db, query);
    for (const int threads : {1, 2, 8}) {
      query.parallel = ParallelOptions{threads};
      const auto got = RunTopKSTPSJoin(db, query, TopKAlgorithm::kAuto);
      ASSERT_TRUE(SameResults(got, expected, /*tolerance=*/0.0))
          << "family=" << family << " threads=" << threads
          << " k=" << query.k;
    }
  }
}

// Even with the feedback map poisoned to prefer each shape in turn, kAuto
// stays exact — the planner can choose badly, never wrongly.
TEST(PlannerSteeringTest, PoisonedFeedbackNeverChangesResults) {
  const ObjectDatabase db = FuzzDb(42, 1);
  STPSQuery query{0.08, 0.3, 0.2};
  const auto expected = BruteForceSTPSJoin(db, query);
  const PlanEstimate estimate = EstimateJoinStages(
      db.planner_stats(), query.eps_loc, query.eps_doc, query.eps_u);
  JoinStats fake;
  fake.pairs_candidate = 123;
  for (const JoinAlgorithm fast :
       {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
        JoinAlgorithm::kSPPJD, JoinAlgorithm::kBruteForce}) {
    PlannerFeedback::Global().Reset();
    // Make `fast` look instantaneous and everything else glacial.
    for (const JoinAlgorithm algorithm :
         {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
          JoinAlgorithm::kSPPJD, JoinAlgorithm::kBruteForce}) {
      PlanShape shape;
      shape.join = algorithm;
      const double cost =
          EstimateShapeCost(db.planner_stats(), shape, estimate);
      for (int i = 0; i < 8; ++i) {
        PlannerFeedback::Global().Record(shape, estimate, cost, fake,
                                         algorithm == fast ? 1e-3 : 1e5);
      }
    }
    const PhysicalPlan plan = PlanSTPSJoin(db, query);
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kAuto;
    ASSERT_TRUE(SameResults(RunSTPSJoin(db, query, options), expected,
                            /*tolerance=*/0.0))
        << "steered toward " << JoinAlgorithmName(fast)
        << ", planner chose " << PlanShapeName(plan.shape);
  }
  PlannerFeedback::Global().Reset();
}

// ---------------------------------------------------------------------------
// Selectivity estimator properties.

TEST(EstimatorPropertyTest, FiniteNonNegativeEverywhere) {
  Rng rng(7);
  for (int family = 0; family < 3; ++family) {
    const ObjectDatabase db = FuzzDb(rng.Next(), family);
    const PlannerStats& stats = db.planner_stats();
    for (const double eps_loc : {0.0, 1e-9, 0.01, 0.1, 0.5, 1.0, 10.0}) {
      for (const double eps_doc : {0.0, 0.1, 0.5, 1.0}) {
        for (const double eps_u : {0.0, 0.3, 1.0}) {
          const PlanEstimate est =
              EstimateJoinStages(stats, eps_loc, eps_doc, eps_u);
          for (const double v :
               {est.cells_visited, est.colocated_object_pairs,
                est.candidate_pairs, est.text_survivors, est.verified_pairs,
                est.verify_cost_per_pair, est.walk_cells,
                est.bounded_walk_cells}) {
            EXPECT_TRUE(std::isfinite(v));
            EXPECT_GE(v, 0.0);
          }
          // The funnel only narrows, and Lemma 1 only shortens the walk.
          EXPECT_LE(est.text_survivors, est.candidate_pairs + 1e-9);
          EXPECT_LE(est.verified_pairs, est.text_survivors + 1e-9);
          EXPECT_LE(est.bounded_walk_cells, est.walk_cells + 1e-9);
          // Cost of every shape is finite and non-negative too.
          for (const JoinAlgorithm algorithm :
               {JoinAlgorithm::kBruteForce, JoinAlgorithm::kSPPJC,
                JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
                JoinAlgorithm::kSPPJD}) {
            for (const int threads : {1, 4}) {
              PlanShape shape;
              shape.join = algorithm;
              shape.threads = threads;
              const double cost = EstimateShapeCost(stats, shape, est);
              EXPECT_TRUE(std::isfinite(cost));
              EXPECT_GE(cost, 0.0);
            }
          }
        }
      }
    }
  }
}

TEST(EstimatorPropertyTest, MonotoneInEachThreshold) {
  Rng rng(11);
  for (int family = 0; family < 3; ++family) {
    const ObjectDatabase db = FuzzDb(rng.Next(), family);
    const PlannerStats& stats = db.planner_stats();
    const std::vector<double> locs = {0.001, 0.005, 0.02,
                                      0.08,  0.3,   1.2};
    // Nondecreasing in eps_loc (a wider radius can only add candidates).
    for (size_t i = 0; i + 1 < locs.size(); ++i) {
      const PlanEstimate lo = EstimateJoinStages(stats, locs[i], 0.3, 0.2);
      const PlanEstimate hi =
          EstimateJoinStages(stats, locs[i + 1], 0.3, 0.2);
      EXPECT_LE(lo.candidate_pairs, hi.candidate_pairs + 1e-9)
          << "family=" << family << " eps_loc " << locs[i] << " -> "
          << locs[i + 1];
      EXPECT_LE(lo.verified_pairs, hi.verified_pairs + 1e-9);
    }
    // Nonincreasing in eps_doc and eps_u (tighter filters kill pairs).
    const std::vector<double> fracs = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
    for (size_t i = 0; i + 1 < fracs.size(); ++i) {
      const PlanEstimate lo =
          EstimateJoinStages(stats, 0.05, fracs[i], 0.2);
      const PlanEstimate hi =
          EstimateJoinStages(stats, 0.05, fracs[i + 1], 0.2);
      EXPECT_GE(lo.text_survivors, hi.text_survivors - 1e-9);
      EXPECT_GE(lo.verified_pairs, hi.verified_pairs - 1e-9);
      const PlanEstimate lo_u =
          EstimateJoinStages(stats, 0.05, 0.3, fracs[i]);
      const PlanEstimate hi_u =
          EstimateJoinStages(stats, 0.05, 0.3, fracs[i + 1]);
      EXPECT_GE(lo_u.verified_pairs, hi_u.verified_pairs - 1e-9);
    }
  }
}

// S-PPJ-B/C run the cell merge for every user pair, so their price must
// cover the U(U-1)/2 pairs a real run verifies and, for S-PPJ-C, the
// merged cells it walks — not just the filter funnel's spatial
// candidates, which is what once made them look cheapest on sparse data.
TEST(CostModelTest, AllPairsShapesPayEveryUserPair) {
  PlannerFeedback::Global().Reset();
  const ObjectDatabase db = GenerateDataset(
      PresetSpec(DatasetKind::kCheckinSparse, 300, 20160315));
  const STPSQuery query = DefaultQuery(DatasetKind::kCheckinSparse);
  const PlannerStats& stats = db.planner_stats();
  const PlanEstimate estimate = EstimateJoinStages(
      stats, query.eps_loc, query.eps_doc, query.eps_u);
  const double users = static_cast<double>(db.num_users());
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJC}) {
    JoinOptions options;
    options.algorithm = algorithm;
    JoinStats measured;
    RunSTPSJoin(db, query, options, &measured);
    EXPECT_EQ(static_cast<double>(measured.pairs_verified),
              users * (users - 1.0) / 2.0);
    PlanShape shape;
    shape.join = algorithm;
    const double cost = EstimateShapeCost(stats, shape, estimate);
    EXPECT_GE(cost, static_cast<double>(measured.pairs_verified))
        << JoinAlgorithmName(algorithm);
    if (algorithm == JoinAlgorithm::kSPPJC) {
      EXPECT_GE(estimate.walk_cells,
                static_cast<double>(measured.cells_visited));
      EXPECT_GE(cost, static_cast<double>(measured.cells_visited));
    }
    // The count is exact: a learned correction must not move the price.
    EXPECT_EQ(EstimateShapeCost(stats, shape, estimate, 40.0), cost);
  }
  PlannerFeedback::Global().Reset();
}

// With fresh feedback the planner must already pick what it converges
// to. On the sparse presets at the bench_planner thresholds the
// all-pairs joins measured 6-8x slower than S-PPJ-F/D, so a fresh process
// must not choose them. (FlickrLike is left out: there S-PPJ-B is close
// to the best plan.)
TEST(PlannerColdStartTest, FreshFeedbackSkipsAllPairsJoinsOnSparsePresets) {
  for (const DatasetKind kind :
       {DatasetKind::kGeoTextLike, DatasetKind::kCheckinSparse}) {
    const ObjectDatabase db =
        GenerateDataset(PresetSpec(kind, 700, 20160315));
    for (const double scale : {1.0, 4.0}) {
      PlannerFeedback::Global().Reset();
      STPSQuery query = DefaultQuery(kind);
      query.eps_loc *= scale;
      JoinOptions options;
      options.threads = 4;
      const PhysicalPlan plan = PlanSTPSJoin(db, query, options);
      EXPECT_NE(plan.shape.join, JoinAlgorithm::kSPPJB)
          << DatasetKindName(kind) << " eps_loc=" << query.eps_loc;
      EXPECT_NE(plan.shape.join, JoinAlgorithm::kSPPJC)
          << DatasetKindName(kind) << " eps_loc=" << query.eps_loc;
    }
  }
  PlannerFeedback::Global().Reset();
}

TEST(PlannerStatsTest, OccupancyLadderIsMonotone) {
  const ObjectDatabase db = FuzzDb(5, 1);
  const PlannerStats& stats = db.planner_stats();
  const uint64_t n = stats.dataset.num_objects;
  // Level 0 is one cell holding everything.
  EXPECT_EQ(stats.occupancy[0].occupied_cells, 1u);
  EXPECT_EQ(stats.occupancy[0].sum_sq_counts, n * n);
  EXPECT_EQ(stats.occupancy[0].max_cell_count, n);
  for (int level = 1; level < PlannerStats::kLevels; ++level) {
    // Refining can only split cells: more occupied cells, smaller sum of
    // squares, smaller densest cell.
    EXPECT_GE(stats.occupancy[level].occupied_cells,
              stats.occupancy[level - 1].occupied_cells);
    EXPECT_LE(stats.occupancy[level].sum_sq_counts,
              stats.occupancy[level - 1].sum_sq_counts);
    EXPECT_LE(stats.occupancy[level].max_cell_count,
              stats.occupancy[level - 1].max_cell_count);
    // Per-level accounting: cells cannot outnumber objects, and the sum
    // of squares is at least n (all singletons).
    EXPECT_LE(stats.occupancy[level].occupied_cells, n);
    EXPECT_GE(stats.occupancy[level].sum_sq_counts, n);
  }
}

TEST(PlannerStatsTest, DatasetStatsAreCachedAtBuild) {
  const ObjectDatabase db = FuzzDb(3, 0);
  ASSERT_TRUE(db.has_planner_stats());
  // The cached copy is byte-identical with a fresh scan, and
  // ComputeDatasetStats returns it.
  EXPECT_EQ(ComputeDatasetStats(db), ComputeDatasetStatsUncached(db));
  EXPECT_EQ(ComputeDatasetStats(db), db.planner_stats().dataset);
  EXPECT_EQ(db.planner_stats().dataset.num_objects, db.num_objects());
  EXPECT_EQ(db.planner_stats().dataset.num_users, db.num_users());
}

// ---------------------------------------------------------------------------
// Online feedback.

TEST(FeedbackTest, PredictionConvergesToObservedRate) {
  PlannerFeedback feedback;
  PlanShape shape;
  shape.join = JoinAlgorithm::kSPPJF;
  PlanEstimate estimate;
  estimate.candidate_pairs = 100.0;
  JoinStats stats;
  stats.pairs_candidate = 100;
  const double units = 1e6;
  const double true_ms = 5.0;  // 5e-6 ms/unit
  for (int i = 0; i < 40; ++i) {
    feedback.Record(shape, estimate, units, stats, true_ms);
  }
  const double predicted = feedback.PredictMillis(shape, units);
  EXPECT_NEAR(predicted, true_ms, 0.05 * true_ms);
  // An unobserved shape still predicts from the calibration default.
  PlanShape other;
  other.join = JoinAlgorithm::kSPPJC;
  EXPECT_GT(feedback.PredictMillis(other, units), 0.0);
}

TEST(FeedbackTest, CandidateCorrectionTracksMeasuredRatio) {
  PlannerFeedback feedback;
  PlanShape shape;
  shape.join = JoinAlgorithm::kSPPJF;
  PlanEstimate estimate;
  estimate.candidate_pairs = 100.0;
  JoinStats stats;
  stats.pairs_candidate = 400;  // model under-estimates 4x
  for (int i = 0; i < 40; ++i) {
    feedback.Record(shape, estimate, 1e5, stats, 1.0);
  }
  EXPECT_NEAR(feedback.CandidateCorrection(shape), 4.0, 0.2);
  // The correction feeds back into the cost: a corrected candidate-driven
  // shape gets more expensive.
  const ObjectDatabase db = FuzzDb(8, 2);
  const PlanEstimate est = EstimateJoinStages(db.planner_stats(), 0.05,
                                              0.3, 0.2);
  EXPECT_GT(EstimateShapeCost(db.planner_stats(), shape, est, 4.0),
            EstimateShapeCost(db.planner_stats(), shape, est, 1.0));
}

// Unobserved shapes are priced with the EWMA of their own query kind: a
// slow join must not make every unobserved top-k shape look slow (or the
// reverse), since the planner only compares shapes of one kind.
TEST(FeedbackTest, QueryKindsKeepSeparateFallbacks) {
  PlannerFeedback feedback;
  PlanShape join;
  join.join = JoinAlgorithm::kSPPJF;
  PlanShape other_join;
  other_join.join = JoinAlgorithm::kSPPJD;
  PlanShape topk;
  topk.topk = true;
  topk.topk_algorithm = TopKAlgorithm::kP;
  PlanShape other_topk = topk;
  other_topk.topk_algorithm = TopKAlgorithm::kS;
  PlanEstimate estimate;
  estimate.candidate_pairs = 100.0;
  JoinStats stats;
  stats.pairs_candidate = 100;
  const double units = 1e6;
  const double unobserved_topk = feedback.PredictMillis(other_topk, units);

  feedback.Record(join, estimate, units, stats, 100.0);
  EXPECT_NEAR(feedback.PredictMillis(other_join, units), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(feedback.PredictMillis(other_topk, units),
                   unobserved_topk);

  feedback.Record(topk, estimate, units, stats, 5.0);
  EXPECT_NEAR(feedback.PredictMillis(other_topk, units), 5.0, 1e-9);
  EXPECT_NEAR(feedback.PredictMillis(other_join, units), 100.0, 1e-9);
  EXPECT_EQ(feedback.total_records(), 2u);
}

// S-PPJ-B/C and brute force know their candidate count exactly, so their
// runs teach no candidate correction — even when the funnel estimate is
// far from U(U-1)/2.
TEST(FeedbackTest, ExactCountShapesLearnNoCandidateCorrection) {
  PlannerFeedback feedback;
  PlanEstimate estimate;
  estimate.candidate_pairs = 100.0;
  JoinStats stats;
  stats.pairs_candidate = 4700;
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJC,
        JoinAlgorithm::kBruteForce}) {
    PlanShape shape;
    shape.join = algorithm;
    EXPECT_FALSE(UsesCandidateCorrection(shape));
    feedback.Record(shape, estimate, 1e5, stats, 1.0);
    EXPECT_DOUBLE_EQ(feedback.CandidateCorrection(shape), 1.0);
  }
  PlanShape filtered;
  filtered.join = JoinAlgorithm::kSPPJF;
  EXPECT_TRUE(UsesCandidateCorrection(filtered));
  feedback.Record(filtered, estimate, 1e5, stats, 1.0);
  EXPECT_NEAR(feedback.CandidateCorrection(filtered), 47.0, 1e-9);
}

TEST(FeedbackTest, SnapshotReportsPerShapeState) {
  PlannerFeedback feedback;
  EXPECT_TRUE(feedback.Snapshot().shapes.empty());
  PlanShape f;
  f.join = JoinAlgorithm::kSPPJF;
  f.threads = 2;
  PlanShape c;
  c.join = JoinAlgorithm::kSPPJC;
  PlanShape topk;
  topk.topk = true;
  topk.topk_algorithm = TopKAlgorithm::kS;
  PlanEstimate estimate;
  estimate.candidate_pairs = 100.0;
  JoinStats stats;
  stats.pairs_candidate = 200;
  feedback.Record(topk, estimate, 1e6, stats, 3.0);
  feedback.Record(f, estimate, 1e6, stats, 4.0);
  feedback.Record(f, estimate, 1e6, stats, 4.0);
  feedback.Record(c, estimate, 1.0, stats, 1e9);  // far above the clamp

  const FeedbackSnapshot snapshot = feedback.Snapshot();
  ASSERT_EQ(snapshot.shapes.size(), 3u);
  // Joins first (C before F), then top-k.
  EXPECT_TRUE(snapshot.shapes[0].shape == c);
  EXPECT_TRUE(snapshot.shapes[1].shape == f);
  EXPECT_TRUE(snapshot.shapes[2].shape == topk);
  EXPECT_EQ(snapshot.shapes[0].runs, 1u);
  EXPECT_EQ(snapshot.shapes[0].clamped, 1u);
  EXPECT_DOUBLE_EQ(snapshot.shapes[0].candidate_ratio, 1.0);
  EXPECT_EQ(snapshot.shapes[1].runs, 2u);
  EXPECT_EQ(snapshot.shapes[1].clamped, 0u);
  EXPECT_NEAR(snapshot.shapes[1].ms_per_unit, 4e-6, 1e-15);
  EXPECT_NEAR(snapshot.shapes[1].candidate_ratio, 2.0, 1e-12);
  EXPECT_EQ(snapshot.join.runs, 3u);
  EXPECT_EQ(snapshot.topk.runs, 1u);
  EXPECT_NEAR(snapshot.topk.ms_per_unit, 3e-6, 1e-15);
  EXPECT_DOUBLE_EQ(snapshot.shapes[1].ms_per_unit,
                   feedback.PredictMillis(f, 1.0));
}

TEST(FeedbackTest, NoteChosenPlanDetectsSwitches) {
  PlannerFeedback feedback;
  PlanShape a;
  a.join = JoinAlgorithm::kSPPJF;
  PlanShape b;
  b.join = JoinAlgorithm::kSPPJC;
  EXPECT_FALSE(feedback.NoteChosenPlan(1, a));  // first sighting
  EXPECT_FALSE(feedback.NoteChosenPlan(1, a));  // stable
  EXPECT_TRUE(feedback.NoteChosenPlan(1, b));   // switch
  EXPECT_FALSE(feedback.NoteChosenPlan(1, b));
  EXPECT_FALSE(feedback.NoteChosenPlan(2, a));  // other query, first
  feedback.Reset();
  EXPECT_FALSE(feedback.NoteChosenPlan(1, b));  // forgotten
}

TEST(FeedbackTest, RejectsDegenerateObservations) {
  PlannerFeedback feedback;
  PlanShape shape;
  PlanEstimate estimate;
  JoinStats stats;
  feedback.Record(shape, estimate, 1e5, stats,
                  std::numeric_limits<double>::quiet_NaN());
  feedback.Record(shape, estimate, 1e5, stats, -1.0);
  feedback.Record(shape, estimate,
                  std::numeric_limits<double>::infinity(), stats, 1.0);
  EXPECT_EQ(feedback.total_records(), 0u);
}

// A converging workload: after the warm-up run, repeating the same query
// must stop switching plans.
TEST(FeedbackTest, RepeatedAutoRunsStopSwitching) {
  PlannerFeedback::Global().Reset();
  const ObjectDatabase db = FuzzDb(21, 1);
  STPSQuery query{0.06, 0.4, 0.25};
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kAuto;
  uint64_t switches_after_first = 0;
  for (int run = 0; run < 6; ++run) {
    JoinStats stats;
    RunSTPSJoin(db, query, options, &stats);
    if (run >= 2) switches_after_first += stats.planner_plan_switches;
    EXPECT_GT(stats.planner_estimated_candidates, 0u);
  }
  // The EWMA sees consistent timings for the winning shape, so at most
  // the first re-plan may move; afterwards the choice must be stable.
  EXPECT_LE(switches_after_first, 1u);
  PlannerFeedback::Global().Reset();
}

// ---------------------------------------------------------------------------
// Plan enumeration respects algorithm preconditions.

TEST(PlannerPreconditionTest, InfeasibleShapesNeverEnumerated) {
  const ObjectDatabase db = FuzzDb(13, 0);
  // eps_doc = 0: the filter-based pair (F, D) is unsound.
  {
    STPSQuery query{0.1, 0.0, 0.3};
    const PhysicalPlan plan = PlanSTPSJoin(db, query);
    for (const PlanCandidate& c : plan.considered) {
      EXPECT_NE(c.shape.join, JoinAlgorithm::kSPPJF);
      EXPECT_NE(c.shape.join, JoinAlgorithm::kSPPJD);
    }
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kAuto;
    EXPECT_TRUE(SameResults(RunSTPSJoin(db, query, options),
                            BruteForceSTPSJoin(db, query)));
  }
  // eps_loc = 0: no grid; only brute force is feasible.
  {
    STPSQuery query{0.0, 0.5, 0.3};
    const PhysicalPlan plan = PlanSTPSJoin(db, query);
    for (const PlanCandidate& c : plan.considered) {
      EXPECT_EQ(c.shape.join, JoinAlgorithm::kBruteForce);
    }
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kAuto;
    EXPECT_TRUE(SameResults(RunSTPSJoin(db, query, options),
                            BruteForceSTPSJoin(db, query)));
  }
  // Thread budget is a ceiling: no enumerated shape exceeds it.
  {
    const STPSQuery query{0.1, 0.4, 0.3};
    JoinOptions options;
    options.threads = 3;
    const PhysicalPlan plan = PlanSTPSJoin(db, query, options);
    for (const PlanCandidate& c : plan.considered) {
      EXPECT_GE(c.shape.threads, 1);
      EXPECT_LE(c.shape.threads, 3);
    }
  }
  // Empty database: the fallback plan is brute force and still runs.
  {
    DatabaseBuilder builder;
    const ObjectDatabase empty = std::move(builder).Build();
    STPSQuery query{0.1, 0.4, 0.3};
    const PhysicalPlan plan = PlanSTPSJoin(empty, query);
    EXPECT_EQ(plan.shape.join, JoinAlgorithm::kBruteForce);
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kAuto;
    EXPECT_TRUE(RunSTPSJoin(empty, query, options).empty());
  }
  // Top-k with eps_doc = 0: index variants are out.
  {
    TopKQuery query{0.1, 0.0, 5};
    const PhysicalPlan plan = PlanTopKSTPSJoin(db, query);
    EXPECT_EQ(plan.shape.topk_algorithm, TopKAlgorithm::kBruteForce);
    EXPECT_TRUE(SameResults(
        RunTopKSTPSJoin(db, query, TopKAlgorithm::kAuto),
        BruteForceTopK(db, query)));
  }
}

TEST(PlannerExplainTest, RendersPlanAndCounterTable) {
  PlannerFeedback::Global().Reset();
  const ObjectDatabase db = FuzzDb(17, 1);
  STPSQuery query{0.08, 0.3, 0.2};
  const PhysicalPlan plan = PlanSTPSJoin(db, query);
  EXPECT_FALSE(plan.considered.empty());
  EXPECT_GT(plan.cost_units, 0.0);
  EXPECT_GT(plan.predicted_ms, 0.0);
  // The candidate table is sorted cheapest-first and the chosen shape is
  // its head.
  for (size_t i = 0; i + 1 < plan.considered.size(); ++i) {
    EXPECT_LE(plan.considered[i].predicted_ms,
              plan.considered[i + 1].predicted_ms);
  }
  EXPECT_TRUE(plan.shape == plan.considered.front().shape);

  const std::string without = ExplainPlan(plan);
  EXPECT_NE(without.find("plan:"), std::string::npos);
  EXPECT_NE(without.find(PlanShapeName(plan.shape)), std::string::npos);
  EXPECT_NE(without.find("[chosen]"), std::string::npos);
  EXPECT_EQ(without.find("estimated vs actual"), std::string::npos);

  JoinOptions options;
  options.algorithm = JoinAlgorithm::kAuto;
  JoinStats stats;
  RunSTPSJoin(db, query, options, &stats);
  const std::string with = ExplainPlan(plan, &stats);
  EXPECT_NE(with.find("estimated vs actual"), std::string::npos);
  EXPECT_NE(with.find("candidate_pairs"), std::string::npos);
  EXPECT_NE(with.find("matches_found"), std::string::npos);
  // The feedback section lists the run just made.
  const size_t feedback = with.find("feedback: join 1 runs");
  ASSERT_NE(feedback, std::string::npos);
  EXPECT_NE(with.find(PlanShapeName(plan.shape), feedback),
            std::string::npos);
  PlannerFeedback::Global().Reset();
}

// An explicit algorithm's plan names the shape that runs, priced as in
// the planner's table, which stays what kAuto would have compared.
TEST(PlannerExplainTest, PinnedPlanReportsTheExplicitShape) {
  PlannerFeedback::Global().Reset();
  const ObjectDatabase db = FuzzDb(17, 1);
  const STPSQuery query{0.08, 0.3, 0.2};
  JoinOptions options;
  options.threads = 2;
  const PhysicalPlan chosen = PlanSTPSJoin(db, query, options);
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
        JoinAlgorithm::kSPPJD, JoinAlgorithm::kBruteForce}) {
    options.algorithm = algorithm;
    const PlanShape shape = ExplicitJoinShape(options);
    EXPECT_EQ(shape.join, algorithm);
    EXPECT_EQ(shape.threads, 2);
    const PhysicalPlan pinned = PinPlanShape(db, chosen, shape);
    EXPECT_TRUE(pinned.shape == shape);
    ASSERT_EQ(pinned.considered.size(), chosen.considered.size());
    for (const PlanCandidate& c : chosen.considered) {
      if (c.shape == shape) {
        EXPECT_EQ(pinned.cost_units, c.cost_units);
        EXPECT_EQ(pinned.predicted_ms, c.predicted_ms);
      }
    }
    EXPECT_GT(pinned.cost_units, 0.0);
    const std::string text = ExplainPlan(pinned);
    EXPECT_NE(text.find("plan: " + PlanShapeName(shape)), std::string::npos);
  }
  // Top-k: brute force has no parallel driver, so the pinned threads=2
  // shape is absent from the table and gets priced on its own.
  TopKQuery topk{0.08, 0.3, 5};
  topk.parallel.num_threads = 2;
  const PlanShape brute =
      ExplicitTopKShape(topk, TopKAlgorithm::kBruteForce);
  const PhysicalPlan pinned =
      PinPlanShape(db, PlanTopKSTPSJoin(db, topk), brute);
  EXPECT_TRUE(pinned.shape == brute);
  EXPECT_GT(pinned.predicted_ms, 0.0);
  PlannerFeedback::Global().Reset();
}

// ---------------------------------------------------------------------------
// Thread-safety: the feedback map is the only shared mutable state in the
// planner stack. Hammer it from concurrent kAuto joins, explicit joins,
// and direct feedback calls; run under TSan via scripts/check_all.sh.

TEST(PlannerConcurrencyTest, SharedFeedbackSurvivesParallelUse) {
  PlannerFeedback::Global().Reset();
  const ObjectDatabase db = FuzzDb(29, 2);
  STPSQuery query{0.05, 0.3, 0.2};
  const auto expected = BruteForceSTPSJoin(db, query);
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < 8; ++i) {
        JoinOptions options;
        options.algorithm =
            (w % 2 == 0) ? JoinAlgorithm::kAuto : JoinAlgorithm::kSPPJF;
        JoinStats stats;
        const auto got = RunSTPSJoin(db, query, options, &stats);
        if (!SameResults(got, expected, /*tolerance=*/0.0)) {
          failed = true;
        }
      }
    });
  }
  // Two more threads poking the feedback API directly.
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&] {
      PlanShape shape;
      shape.join = JoinAlgorithm::kSPPJC;
      PlanEstimate estimate;
      estimate.candidate_pairs = 10.0;
      JoinStats stats;
      stats.pairs_candidate = 12;
      for (int i = 0; i < 64; ++i) {
        PlannerFeedback::Global().Record(shape, estimate, 1e4, stats, 0.5);
        PlannerFeedback::Global().PredictMillis(shape, 1e4);
        PlannerFeedback::Global().CandidateCorrection(shape);
        PlannerFeedback::Global().NoteChosenPlan(99, shape);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(PlannerFeedback::Global().total_records(), 0u);
  PlannerFeedback::Global().Reset();
}

// Regression: a zero (or non-finite) candidate estimate must not enter
// the actual/estimated EWMA. Before the guard, Record() divided by
// max(1.0, 0.0) and pushed a fabricated ratio of up to 64x into the
// learned correction, poisoning every later query of the same shape.
TEST(PlannerFeedbackTest, ZeroEstimateDoesNotPoisonCandidateRatio) {
  PlannerFeedback::Global().Reset();
  PlanShape shape;
  shape.join = JoinAlgorithm::kSPPJF;
  JoinStats stats;
  stats.pairs_candidate = 5000;  // huge "actual" against a zero estimate

  PlanEstimate zero;
  zero.candidate_pairs = 0.0;
  PlannerFeedback::Global().Record(shape, zero, 1e4, stats, 0.5);
  EXPECT_DOUBLE_EQ(PlannerFeedback::Global().CandidateCorrection(shape), 1.0);

  PlanEstimate bogus;
  bogus.candidate_pairs = std::nan("");
  PlannerFeedback::Global().Record(shape, bogus, 1e4, stats, 0.5);
  EXPECT_DOUBLE_EQ(PlannerFeedback::Global().CandidateCorrection(shape), 1.0);

  // Timing feedback from those runs still lands, and predictions stay
  // finite and non-negative.
  EXPECT_GT(PlannerFeedback::Global().total_records(), 0u);
  const double predicted = PlannerFeedback::Global().PredictMillis(shape, 1e4);
  EXPECT_TRUE(std::isfinite(predicted));
  EXPECT_GE(predicted, 0.0);

  // A later real estimate learns the ratio normally.
  PlanEstimate real;
  real.candidate_pairs = 1000.0;
  PlannerFeedback::Global().Record(shape, real, 1e4, stats, 0.5);
  EXPECT_GT(PlannerFeedback::Global().CandidateCorrection(shape), 1.0);
  PlannerFeedback::Global().Reset();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace stps
