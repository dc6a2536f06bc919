// Online feedback for the query planner.
//
// Every run routed through RunSTPSJoin / RunTopKSTPSJoin — explicit
// algorithm choices included, not just kAuto — records (plan shape,
// estimated stages, measured JoinStats, elapsed ms) here. The planner
// then prices a shape as `estimated units x EWMA(measured ms / estimated
// units)` and scales its candidate estimates by the learned
// actual/estimated ratio, so repeated queries on a live database converge
// onto the measured-fastest variant instead of the a-priori model: the
// paper's Sec. 5.6 discipline (tune from observed runs) extended from
// thresholds to physical-plan choice.
//
// A shape not yet observed is priced with the EWMA over every run of its
// query kind (join or top-k). The planner only ever compares shapes of
// one kind, so a kind-wide coefficient ranks the unobserved shapes by
// their modelled units alone, the same way the observed ones were
// ranked before their first run; top-k timings never leak into join
// prices or the reverse.
//
// The map is process-global shared mutable state guarded by one mutex;
// joins are ms-scale, so one lock per run is noise. The TSan stage of
// scripts/check_all.sh runs the planner differential suite, which hammers
// Record/Predict/NoteChosenPlan from concurrent threads.

#ifndef STPS_PLANNER_FEEDBACK_H_
#define STPS_PLANNER_FEEDBACK_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/join_stats.h"
#include "planner/cost_model.h"

namespace stps {

/// Read-only copy of PlannerFeedback's learned state (Explain output).
struct FeedbackSnapshot {
  /// One observed shape.
  struct Shape {
    PlanShape shape;
    uint64_t runs = 0;
    double ms_per_unit = 0.0;      // EWMA of measured ms / cost units
    double candidate_ratio = 1.0;  // EWMA of actual / estimated candidates
    uint64_t clamped = 0;  // observations that hit the sanity clamp
  };
  /// One query kind: runs folded in, and the EWMA over all of them that
  /// prices the kind's unobserved shapes (0 until a run).
  struct Kind {
    uint64_t runs = 0;
    double ms_per_unit = 0.0;
  };
  /// Observed shapes, joins before top-k, then by algorithm, sketch and
  /// thread count.
  std::vector<Shape> shapes;
  Kind join;
  Kind topk;
};

class PlannerFeedback {
 public:
  /// The process-wide instance the umbrella entry points feed.
  static PlannerFeedback& Global();

  PlannerFeedback() = default;

  /// Predicted wall-clock for `cost_units` of work under `shape`: the
  /// shape's learned ms-per-unit EWMA when the shape has been observed,
  /// else the EWMA over every observed run of the same query kind (so
  /// one measured run calibrates the machine's overall speed and
  /// unobserved shapes are ranked purely by their cost units — no
  /// optimistic prior to chase), else the calibration default.
  double PredictMillis(const PlanShape& shape, double cost_units) const;

  /// Learned actual/estimated candidate-pair ratio for `shape` (1 until
  /// observed, and always 1 when !UsesCandidateCorrection(shape)). The
  /// planner passes this to EstimateShapeCost so count mispredictions
  /// self-correct.
  double CandidateCorrection(const PlanShape& shape) const;

  /// Folds one measured run into the shape's coefficients. `cost_units`
  /// is EstimateShapeCost for this shape with correction 1 (the raw model
  /// output, so the ms-per-unit EWMA stays comparable across runs).
  void Record(const PlanShape& shape, const PlanEstimate& estimate,
              double cost_units, const JoinStats& stats, double elapsed_ms);

  /// Copy of the learned coefficients.
  FeedbackSnapshot Snapshot() const;

  /// Remembers the plan chosen for a query signature; returns true when
  /// it differs from the previous choice for the same signature (a "plan
  /// switch" — the convergence signal JoinStats surfaces).
  bool NoteChosenPlan(uint64_t query_signature, const PlanShape& shape);

  /// Number of runs folded in so far.
  uint64_t total_records() const;

  /// Drops all learned state (tests; a fresh process starts empty).
  void Reset();

 private:
  struct ShapeKey {
    // Canonical small-int encoding of a PlanShape.
    uint32_t bits = 0;
    friend bool operator==(const ShapeKey& a, const ShapeKey& b) {
      return a.bits == b.bits;
    }
  };
  struct ShapeKeyHash {
    size_t operator()(const ShapeKey& k) const {
      uint64_t x = k.bits * 0x9E3779B97F4A7C15ull;
      x ^= x >> 32;
      return static_cast<size_t>(x);
    }
  };
  struct Entry {
    PlanShape shape;
    double ewma_ms_per_unit = 0.0;
    double ewma_candidate_ratio = 1.0;
    uint64_t runs = 0;
    uint64_t clamped = 0;
  };

  static ShapeKey KeyOf(const PlanShape& shape);

  mutable std::mutex mutex_;
  std::unordered_map<ShapeKey, Entry, ShapeKeyHash> entries_;
  std::unordered_map<uint64_t, ShapeKey> last_plan_;
  FeedbackSnapshot::Kind kinds_[2];  // index: PlanShape::topk
};

}  // namespace stps

#endif  // STPS_PLANNER_FEEDBACK_H_
