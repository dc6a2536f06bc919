// Bounded best-k container under the TopKBetter total order, shared by
// every top-k driver (core/topk.cc and the sketch-candidate driver in
// sketch/sketch_join.cc).
//
// Tie semantics at the threshold: a candidate whose score exactly equals
// the tail's enters iff it beats the tail on the id order (TopKBetter is a
// total order, so Offer is deterministic and independent of arrival
// order). Every pruning stage upstream must therefore keep candidates
// whose score can still *equal* the tail's — which is why those prunes go
// through the exact counting predicates of common/predicates.h and never
// through a rounded quotient, and why Threshold() is the tail score
// stepped one ULP down: the tail's reported score is the rational
// matched/total rounded to nearest, which can lie above that rational
// (fl(2/13) > 2/13), and an exact prune against it would reject a pair
// scoring exactly the tail's rational. Because Offer ignores arrival
// order, the top-k workers can share one queue (core/topk.cc) and the
// sketch driver's thread-local queues can be merged via Offer; both
// resolve boundary ties exactly as the sequential drivers do.

#ifndef STPS_CORE_RESULT_QUEUE_H_
#define STPS_CORE_RESULT_QUEUE_H_

#include <set>
#include <vector>

#include "common/predicates.h"
#include "core/similarity.h"

namespace stps {

struct TopKBetterCmp {
  bool operator()(const ScoredUserPair& x, const ScoredUserPair& y) const {
    return TopKBetter(x, y);
  }
};

class ResultQueue {
 public:
  explicit ResultQueue(size_t k) : k_(k) {}

  bool full() const { return pairs_.size() >= k_; }

  /// A pruning threshold: every pair that can still enter scores at
  /// least this much (0 until full). ThresholdFromScore re-admits every
  /// pair whose exact score equals the tail's, so prunes through
  /// SigmaAtLeast(matched, total, Threshold()) keep every possible tie.
  double Threshold() const {
    return full() ? ThresholdFromScore(Tail().score) : 0.0;
  }

  /// Offers a pair; keeps only the best k.
  void Offer(const ScoredUserPair& pair) {
    if (full() && !TopKBetter(pair, Tail())) return;
    pairs_.insert(pair);
    if (pairs_.size() > k_) pairs_.erase(std::prev(pairs_.end()));
  }

  std::vector<ScoredUserPair> TakeSorted() const {
    return std::vector<ScoredUserPair>(pairs_.begin(), pairs_.end());
  }

 private:
  const ScoredUserPair& Tail() const { return *pairs_.rbegin(); }

  size_t k_;
  std::set<ScoredUserPair, TopKBetterCmp> pairs_;
};

}  // namespace stps

#endif  // STPS_CORE_RESULT_QUEUE_H_
