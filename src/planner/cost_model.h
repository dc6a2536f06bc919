// Selectivity estimation and cost accounting for the query planner.
//
// Two layers, deliberately separated:
//
//  * `EstimateJoinStages` predicts the *stage counts* of a query from the
//    build-time PlannerStats alone — cells visited, candidate user pairs
//    surviving the spatial filter, survivors of the textual co-location
//    filter, pairs reaching the refine kernel — plus a per-pair refine
//    cost and the merged cells of an all-pairs cell walk. The estimates
//    are algorithm-independent (the filtering variants walk the same
//    candidate funnel and differ in which stages they skip; S-PPJ-B/C
//    walk every pair instead) and deliberately coarse: they only need to
//    rank plans, and the online feedback (planner/feedback.h) corrects
//    their scale from measured JoinStats. Guaranteed properties, relied
//    on by the planner and pinned by tests: every estimate is finite and
//    >= 0, candidate/verified counts are nondecreasing in eps_loc and
//    nonincreasing in eps_doc and eps_u.
//
//  * `EstimateShapeCost` converts stage counts into abstract work units
//    for one physical plan shape (algorithm x sketch x threads),
//    charging each shape only for the stages it executes: S-PPJ-B/C run
//    the cell merge for every one of the U(U-1)/2 user pairs (an exact
//    count) and pay the all-pairs cell walk, S-PPJ-F/D pay the index
//    build plus textual survivors only, the sketch path pays band probes
//    plus full-point-set verifications, parallel shapes amortise refine
//    work across threads behind a fixed pool-spin-up charge. Units are
//    "elementary kernel operations"; PlannerFeedback's EWMA of measured
//    ms-per-unit per shape turns them into milliseconds.

#ifndef STPS_PLANNER_COST_MODEL_H_
#define STPS_PLANNER_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "core/stpsjoin.h"
#include "planner/planner_stats.h"

namespace stps {

/// One physical plan shape — the unit the cost model prices and the
/// feedback map is keyed by. `join` is meaningful when !topk,
/// `topk_algorithm` when topk; the sketch flag overrides the algorithm's
/// filter stage exactly as RunSTPSJoin's routing does.
struct PlanShape {
  bool topk = false;
  JoinAlgorithm join = JoinAlgorithm::kSPPJF;
  TopKAlgorithm topk_algorithm = TopKAlgorithm::kP;
  bool sketch = false;
  int threads = 1;

  friend bool operator==(const PlanShape& a, const PlanShape& b) {
    return a.topk == b.topk && a.join == b.join &&
           a.topk_algorithm == b.topk_algorithm && a.sketch == b.sketch &&
           a.threads == b.threads;
  }
};

/// Display name of a shape's algorithm ("S-PPJ-F", "TOPK-S-PPJ-P",
/// "sketch+S-PPJ-F", ...), for Explain output and bench tables.
std::string PlanShapeName(const PlanShape& shape);

/// Estimated per-stage candidate counts for a query, plus the derived
/// per-pair refine cost. All values finite and >= 0.
struct PlanEstimate {
  double cells_visited = 0.0;       // (cell, neighbour) filter probes
  double colocated_object_pairs = 0.0;  // object pairs within ~eps_loc
  double candidate_pairs = 0.0;     // user pairs past the spatial filter
  double text_survivors = 0.0;      // ... also past the textual filter
  double verified_pairs = 0.0;      // ... reaching the refine kernel
  double verify_cost_per_pair = 0.0;  // refine units per verified pair
  double walk_cells = 0.0;          // merged cells of the all-pairs walk
  double bounded_walk_cells = 0.0;  // ... before Lemma 1 stops each pair
};

/// Predicts the stage counts of Q = <eps_loc, eps_doc, eps_u> over a
/// database summarised by `stats`. For top-k queries pass eps_doc and
/// eps_u = 0 (the threshold is discovered at run time; the k-dependent
/// discount is applied by EstimateShapeCost).
PlanEstimate EstimateJoinStages(const PlannerStats& stats, double eps_loc,
                                double eps_doc, double eps_u);

/// Total work units shape `shape` spends to execute a query with stage
/// counts `est`. `candidate_correction` scales the candidate-derived
/// stages (the feedback's learned actual/estimated ratio; pass 1 when
/// none); shapes for which UsesCandidateCorrection is false ignore it.
/// Finite and >= 0.
double EstimateShapeCost(const PlannerStats& stats, const PlanShape& shape,
                         const PlanEstimate& est,
                         double candidate_correction = 1.0);

/// False for shapes whose candidate count is exact rather than
/// estimated: S-PPJ-B/C and brute force visit every one of the U(U-1)/2
/// user pairs, so their cost never reads the learned candidate
/// correction and PlannerFeedback never learns one from their runs.
bool UsesCandidateCorrection(const PlanShape& shape);

}  // namespace stps

#endif  // STPS_PLANNER_COST_MODEL_H_
