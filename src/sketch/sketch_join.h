// Join drivers over sketch-generated candidates: the pairs come from
// UserSketchIndex::GenerateCandidates (a provable superset of every
// result pair — see sketch/sketch.h), and every candidate is settled by
// the exact PPJ-B kernel, so results are bit-identical to brute force at
// any thread count. Standalone entry points: the caller builds the index
// with BuildUserSketches(db) and passes it in; RunSTPSJoin /
// RunTopKSTPSJoin and the planner never route here.

#ifndef STPS_SKETCH_SKETCH_JOIN_H_
#define STPS_SKETCH_SKETCH_JOIN_H_

#include <vector>

#include "common/thread_pool.h"
#include "core/join_stats.h"
#include "core/similarity.h"
#include "sketch/sketch.h"

namespace stps {

/// Threshold join over the candidates of `sketches`, an index built over
/// `db`. Preconditions: eps_loc > 0 (verification walks the eps_loc user
/// grid), eps_doc > 0 and eps_u > 0 (the same contract as the
/// filter-based algorithms — with eps_doc == 0, empty-doc objects can
/// match without a common token and the band index would not be a sound
/// filter). Results sorted by (a, b) with exact scores, identical at any
/// `parallel.num_threads`.
std::vector<ScoredUserPair> SketchSTPSJoin(const ObjectDatabase& db,
                                           const UserSketchIndex& sketches,
                                           const STPSQuery& query,
                                           const ParallelOptions& parallel,
                                           JoinStats* stats = nullptr);

/// Top-k join over the candidates of `sketches`, verified in the
/// heavy-hitters-first priority order (the first `heavy_capacity` pairs
/// by count-min estimate) so the result queue's threshold rises early
/// and the PPJ-B Lemma 1 budget prunes the tail. Preconditions:
/// eps_loc > 0, eps_doc > 0, k > 0. Results best-first under TopKBetter,
/// identical at any thread count and any `heavy_capacity`.
std::vector<ScoredUserPair> SketchTopKSTPSJoin(
    const ObjectDatabase& db, const UserSketchIndex& sketches,
    const TopKQuery& query, const ParallelOptions& parallel,
    JoinStats* stats = nullptr,
    uint32_t heavy_capacity = kDefaultHeavyCapacity);

}  // namespace stps

#endif  // STPS_SKETCH_SKETCH_JOIN_H_
