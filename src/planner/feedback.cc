#include "planner/feedback.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace stps {

namespace {

// EWMA weight of the newest observation. High enough that the bench's
// warm-up runs dominate the prior within 2-3 repetitions, low enough
// that one noisy timing does not flip the plan choice.
constexpr double kAlpha = 0.4;

// Calibration prior: milliseconds per abstract work unit before any run
// of a shape has been measured. One "unit" is roughly one elementary
// kernel operation (a distance test, a token comparison), a few ns on
// current hardware.
constexpr double kDefaultMsPerUnit = 2e-6;

// Observations are clamped into a sane band before entering the EWMA so
// a degenerate run (zero estimate, timer quantisation) cannot poison the
// learned coefficient forever.
constexpr double kMinMsPerUnit = kDefaultMsPerUnit / 256.0;
constexpr double kMaxMsPerUnit = kDefaultMsPerUnit * 256.0;
constexpr double kMinRatio = 1.0 / 64.0;
constexpr double kMaxRatio = 64.0;

}  // namespace

PlannerFeedback& PlannerFeedback::Global() {
  static PlannerFeedback* instance = new PlannerFeedback();
  return *instance;
}

PlannerFeedback::ShapeKey PlannerFeedback::KeyOf(const PlanShape& shape) {
  ShapeKey key;
  key.bits = static_cast<uint32_t>(shape.topk ? 1 : 0) |
             (static_cast<uint32_t>(shape.join) << 1) |
             (static_cast<uint32_t>(shape.topk_algorithm) << 4) |
             (static_cast<uint32_t>(std::clamp(shape.threads, 0, 0xFFFF))
              << 8);
  return key;
}

double PlannerFeedback::PredictMillis(const PlanShape& shape,
                                      double cost_units) const {
  double per_unit = kDefaultMsPerUnit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(KeyOf(shape));
    if (it != entries_.end() && it->second.runs > 0) {
      per_unit = it->second.ewma_ms_per_unit;
    } else if (kinds_[shape.topk].runs > 0) {
      per_unit = kinds_[shape.topk].ms_per_unit;
    }
  }
  const double units =
      (std::isfinite(cost_units) && cost_units > 0.0) ? cost_units : 0.0;
  return per_unit * units;
}

double PlannerFeedback::CandidateCorrection(const PlanShape& shape) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(KeyOf(shape));
  if (it == entries_.end() || it->second.runs == 0) return 1.0;
  return it->second.ewma_candidate_ratio;
}

void PlannerFeedback::Record(const PlanShape& shape,
                             const PlanEstimate& estimate, double cost_units,
                             const JoinStats& stats, double elapsed_ms) {
  if (!std::isfinite(elapsed_ms) || elapsed_ms < 0.0) return;
  if (!std::isfinite(cost_units) || cost_units < 0.0) return;

  // The actual/estimated ratio only means something when the estimator
  // produced a real positive count. Guard the denominator *before*
  // forming the quotient: a zero estimate (empty database, fully pruned
  // plan) or a non-finite one must not enter the EWMA at all — clamping
  // actual/max(1, 0) would fabricate a ratio of up to kMaxRatio and
  // poison the learned correction for every later query of this shape.
  // Shapes with an exact candidate count have nothing to learn.
  const bool has_estimate = UsesCandidateCorrection(shape) &&
                            std::isfinite(estimate.candidate_pairs) &&
                            estimate.candidate_pairs >= 1.0;
  double raw_ratio = 1.0;
  if (has_estimate) {
    const double actual_candidates =
        std::max(1.0, static_cast<double>(stats.pairs_candidate));
    raw_ratio = actual_candidates / estimate.candidate_pairs;
  }
  const double ratio = std::clamp(raw_ratio, kMinRatio, kMaxRatio);

  const double units = std::max(1.0, cost_units);
  const double raw_per_unit = elapsed_ms / units;
  const double per_unit =
      std::clamp(raw_per_unit, kMinMsPerUnit, kMaxMsPerUnit);
  const bool clamped = per_unit != raw_per_unit || ratio != raw_ratio;

  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[KeyOf(shape)];
  if (entry.runs == 0) {
    entry.shape = shape;
    entry.ewma_ms_per_unit = per_unit;
    if (has_estimate) entry.ewma_candidate_ratio = ratio;
  } else {
    entry.ewma_ms_per_unit =
        (1.0 - kAlpha) * entry.ewma_ms_per_unit + kAlpha * per_unit;
    if (has_estimate) {
      entry.ewma_candidate_ratio =
          (1.0 - kAlpha) * entry.ewma_candidate_ratio + kAlpha * ratio;
    }
  }
  ++entry.runs;
  if (clamped) ++entry.clamped;
  FeedbackSnapshot::Kind& kind = kinds_[shape.topk];
  kind.ms_per_unit = kind.runs == 0 ? per_unit
                                    : (1.0 - kAlpha) * kind.ms_per_unit +
                                          kAlpha * per_unit;
  ++kind.runs;
}

FeedbackSnapshot PlannerFeedback::Snapshot() const {
  FeedbackSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.shapes.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      snapshot.shapes.push_back({entry.shape, entry.runs,
                                 entry.ewma_ms_per_unit,
                                 entry.ewma_candidate_ratio, entry.clamped});
    }
    snapshot.join = kinds_[0];
    snapshot.topk = kinds_[1];
  }
  std::sort(snapshot.shapes.begin(), snapshot.shapes.end(),
            [](const FeedbackSnapshot::Shape& x,
               const FeedbackSnapshot::Shape& y) {
              const PlanShape& a = x.shape;
              const PlanShape& b = y.shape;
              return std::tie(a.topk, a.join, a.topk_algorithm,
                              a.threads) < std::tie(b.topk, b.join,
                                                    b.topk_algorithm,
                                                    b.threads);
            });
  return snapshot;
}

bool PlannerFeedback::NoteChosenPlan(uint64_t query_signature,
                                     const PlanShape& shape) {
  const ShapeKey key = KeyOf(shape);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = last_plan_.try_emplace(query_signature, key);
  if (inserted) return false;
  const bool switched = !(it->second == key);
  it->second = key;
  return switched;
}

uint64_t PlannerFeedback::total_records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return kinds_[0].runs + kinds_[1].runs;
}

void PlannerFeedback::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  last_plan_.clear();
  kinds_[0] = kinds_[1] = {};
}

}  // namespace stps
