// Cost-model-driven physical planning for RunSTPSJoin / RunTopKSTPSJoin.
//
// `PlanSTPSJoin` enumerates the feasible plan shapes for a query — every
// algorithm whose preconditions hold, sequential and pooled execution
// within the caller's thread budget — prices each one through the cost model (planner/cost_model.h) scaled
// by the online feedback's learned coefficients (planner/feedback.h), and
// returns the cheapest. Every shape computes the exact same result set
// (the library's algorithms are all exact), so the planner can only ever
// be wrong about speed, never about answers; JoinAlgorithm::kAuto /
// TopKAlgorithm::kAuto route through here.
//
// `ExplainPlan` renders the decision: the chosen shape, the estimated
// stage counts, the rejected alternatives with their predicted costs,
// the feedback coefficients that priced them, and — when the caller
// passes the measured JoinStats back in — an estimated-vs-actual counter
// table.

#ifndef STPS_PLANNER_PLANNER_H_
#define STPS_PLANNER_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/stpsjoin.h"
#include "planner/cost_model.h"

namespace stps {

/// One priced alternative the planner considered.
struct PlanCandidate {
  PlanShape shape;
  double cost_units = 0.0;
  double predicted_ms = 0.0;
};

/// The planner's decision for one query: the shape to execute plus the
/// physical knobs RunSTPSJoin needs, the estimates backing the choice,
/// and the full candidate table for Explain output.
struct PhysicalPlan {
  PlanShape shape;
  /// R-tree node capacity, honoured when shape.join == kSPPJD.
  int rtree_fanout = 128;
  /// Stage estimates for the query (shape-independent).
  PlanEstimate estimate;
  /// Cost of the chosen shape in model units (feedback-corrected).
  double cost_units = 0.0;
  /// Predicted wall-clock of the chosen shape.
  double predicted_ms = 0.0;
  /// Hash of (database identity, thresholds) keying plan-switch
  /// detection in PlannerFeedback::NoteChosenPlan.
  uint64_t query_signature = 0;
  /// Every feasible shape with its price, cheapest first.
  std::vector<PlanCandidate> considered;
};

/// Plans Q = <eps_loc, eps_doc, eps_u>. `options` carries the caller's
/// knobs: `options.threads` is the thread *budget* — the planner picks
/// sequential execution when the pool spin-up costs more than it saves —
/// and `options.rtree_fanout` passes through. `options.algorithm` is
/// ignored (the planner chooses).
PhysicalPlan PlanSTPSJoin(const ObjectDatabase& db, const STPSQuery& query,
                          const JoinOptions& options = {});

/// Plans a top-k query; the thread budget is query.parallel.num_threads.
PhysicalPlan PlanTopKSTPSJoin(const ObjectDatabase& db,
                              const TopKQuery& query);

/// The shape RunSTPSJoin runs (and records feedback under) for an
/// explicit, non-kAuto `options.algorithm`: that algorithm on
/// `options.threads` workers.
PlanShape ExplicitJoinShape(const JoinOptions& options);

/// Same for RunTopKSTPSJoin with an explicit, non-kAuto `algorithm`.
PlanShape ExplicitTopKShape(const TopKQuery& query, TopKAlgorithm algorithm);

/// `plan` re-targeted at `shape` (an explicit algorithm's): the shape
/// and its price, taken from `considered` or priced the same way, while
/// `considered` keeps the planner's table — what kAuto would have
/// compared.
PhysicalPlan PinPlanShape(const ObjectDatabase& db, PhysicalPlan plan,
                          const PlanShape& shape);

/// Human-readable rendering of a plan: chosen shape, stage estimates,
/// candidate table, and the process-global PlannerFeedback state at the
/// time of the call. With `actual`, appends an estimated-vs-actual
/// counter comparison from the measured run.
std::string ExplainPlan(const PhysicalPlan& plan,
                        const JoinStats* actual = nullptr);

}  // namespace stps

#endif  // STPS_PLANNER_PLANNER_H_
