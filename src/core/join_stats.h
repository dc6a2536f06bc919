// Filter/refine instrumentation for the STPSJoin algorithms.
//
// Every join driver can report where the candidate pairs went — the key
// signal for tuning the filters (the PPJoin lineage and SEAL both tune on
// candidate/verification counts). Counters are plain uint64_t: the
// parallel drivers give each worker its own JoinStats and Merge them when
// the join completes, so the hot paths never touch shared memory.
//
// Counter semantics (a pair = unordered user pair considered once):
//  * cells_visited         — cell/leaf visits: (cell, neighbour) probes in
//                            the filter stage plus merged cells traversed
//                            by the refine kernels.
//  * pairs_pruned_spatial  — pairs dismissed because the two users share
//                            no eps_loc-neighbouring partitions (never
//                            surfaced by the grid/leaf filter).
//  * pairs_pruned_textual  — pairs spatially co-located but with no common
//                            token in any co-located partition.
//  * pairs_candidate       — pairs that survived the filter stage (for the
//                            filterless S-PPJ-B/C: every pair).
//  * pairs_pruned_count    — candidates killed by the sigma_bar object-
//                            count upper bound before verification.
//  * pairs_verified        — refine-kernel invocations.
//  * refine_early_stops    — verifications cut short by the Lemma 1
//                            unmatched-object bound inside the kernel.
//  * signature_rejections  — object-level Jaccard tests resolved by the
//                            64-bit bitmap signature bound alone, without
//                            touching either token list (text/intersect.h).
//  * batch_distance_calls  — probe invocations of the batched eps_loc
//                            kernels (spatial/batch.h): one per (probe
//                            object, cell block) pair.
//  * batch_lanes_filled    — candidate distances evaluated by those
//                            invocations (sum of block sizes); divided by
//                            batch_distance_calls this is the average
//                            batch width, the measure of how much the
//                            SoA layout actually amortises.
//  * matches_found         — result pairs (for top-k: the final k).
//  * sketch_candidate_pairs — user pairs surfaced by the per-user sketch
//                            layer's band index (sketch/sketch.h); every
//                            one of them flows into the exact verify
//                            path, so for the standalone sketch drivers
//                            (sketch/sketch_join.h) this equals
//                            pairs_candidate. 0 for every other driver.
//  * sketch_rejections     — band-index pairs disproven by the occupancy
//                            sketches before verification (each such
//                            rejection is an exact spatial separation
//                            proof; rejected pairs are never candidates).
//  * planner_estimated_candidates — the query planner's pre-run estimate
//                            of pairs_candidate (planner/cost_model.h);
//                            comparing it against the measured counter is
//                            how Explain and the feedback loop judge the
//                            selectivity model. 0 when the run bypassed
//                            the planner (no cached PlannerStats).
//  * planner_plan_switches — 1 when a kAuto run chose a different plan
//                            shape than the previous kAuto run of the
//                            same query signature (0 otherwise, and for
//                            explicit algorithm choices). Summed across
//                            runs it measures planner convergence.
//
// Invariants (asserted by the consistency fuzz suite):
//   pairs_candidate == pairs_pruned_count + pairs_verified
//   pairs_verified  >= matches_found
//   sketch_candidate_pairs >= matches_found   (sketch drivers)

#ifndef STPS_CORE_JOIN_STATS_H_
#define STPS_CORE_JOIN_STATS_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace stps {

struct JoinStats {
  uint64_t cells_visited = 0;
  uint64_t pairs_pruned_spatial = 0;
  uint64_t pairs_pruned_textual = 0;
  uint64_t pairs_candidate = 0;
  uint64_t pairs_pruned_count = 0;
  uint64_t pairs_verified = 0;
  uint64_t refine_early_stops = 0;
  uint64_t signature_rejections = 0;
  uint64_t batch_distance_calls = 0;
  uint64_t batch_lanes_filled = 0;
  uint64_t matches_found = 0;
  uint64_t sketch_candidate_pairs = 0;
  uint64_t sketch_rejections = 0;
  uint64_t planner_estimated_candidates = 0;
  uint64_t planner_plan_switches = 0;

  /// Sums another accumulator into this one (worker merge).
  void Merge(const JoinStats& o) {
    cells_visited += o.cells_visited;
    pairs_pruned_spatial += o.pairs_pruned_spatial;
    pairs_pruned_textual += o.pairs_pruned_textual;
    pairs_candidate += o.pairs_candidate;
    pairs_pruned_count += o.pairs_pruned_count;
    pairs_verified += o.pairs_verified;
    refine_early_stops += o.refine_early_stops;
    signature_rejections += o.signature_rejections;
    batch_distance_calls += o.batch_distance_calls;
    batch_lanes_filled += o.batch_lanes_filled;
    matches_found += o.matches_found;
    sketch_candidate_pairs += o.sketch_candidate_pairs;
    sketch_rejections += o.sketch_rejections;
    planner_estimated_candidates += o.planner_estimated_candidates;
    planner_plan_switches += o.planner_plan_switches;
  }

  friend bool operator==(const JoinStats& x, const JoinStats& y) {
    return x.cells_visited == y.cells_visited &&
           x.pairs_pruned_spatial == y.pairs_pruned_spatial &&
           x.pairs_pruned_textual == y.pairs_pruned_textual &&
           x.pairs_candidate == y.pairs_candidate &&
           x.pairs_pruned_count == y.pairs_pruned_count &&
           x.pairs_verified == y.pairs_verified &&
           x.refine_early_stops == y.refine_early_stops &&
           x.signature_rejections == y.signature_rejections &&
           x.batch_distance_calls == y.batch_distance_calls &&
           x.batch_lanes_filled == y.batch_lanes_filled &&
           x.matches_found == y.matches_found &&
           x.sketch_candidate_pairs == y.sketch_candidate_pairs &&
           x.sketch_rejections == y.sketch_rejections &&
           x.planner_estimated_candidates == y.planner_estimated_candidates &&
           x.planner_plan_switches == y.planner_plan_switches;
  }
};

/// One-line rendering for bench / log output.
inline std::string FormatJoinStats(const JoinStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "cells=%llu prunedS/T/C=%llu/%llu/%llu cand=%llu "
                "verified=%llu earlystop=%llu sigrej=%llu batch=%llu/%llu "
                "matches=%llu sketch=%llu/%llu plan_est=%llu switches=%llu",
                static_cast<unsigned long long>(s.cells_visited),
                static_cast<unsigned long long>(s.pairs_pruned_spatial),
                static_cast<unsigned long long>(s.pairs_pruned_textual),
                static_cast<unsigned long long>(s.pairs_pruned_count),
                static_cast<unsigned long long>(s.pairs_candidate),
                static_cast<unsigned long long>(s.pairs_verified),
                static_cast<unsigned long long>(s.refine_early_stops),
                static_cast<unsigned long long>(s.signature_rejections),
                static_cast<unsigned long long>(s.batch_distance_calls),
                static_cast<unsigned long long>(s.batch_lanes_filled),
                static_cast<unsigned long long>(s.matches_found),
                static_cast<unsigned long long>(s.sketch_candidate_pairs),
                static_cast<unsigned long long>(s.sketch_rejections),
                static_cast<unsigned long long>(s.planner_estimated_candidates),
                static_cast<unsigned long long>(s.planner_plan_switches));
  return buf;
}

}  // namespace stps

#endif  // STPS_CORE_JOIN_STATS_H_
