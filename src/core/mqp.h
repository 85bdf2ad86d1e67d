#ifndef WNRS_CORE_MQP_H_
#define WNRS_CORE_MQP_H_

#include <optional>
#include <vector>

#include "core/cost.h"
#include "index/rtree.h"

namespace wnrs {

/// Result of Algorithm 2 (Modify Query Point, no safe region).
struct MqpResult {
  /// True iff c_t was already in RSL(q); candidates then hold just q at
  /// cost 0.
  bool already_member = false;
  /// The culprit set Λ returned by the window query.
  std::vector<RStarTree::Id> culprits;
  /// Candidate new query locations q*, cost-ascending under the alpha
  /// weights alone (the paper's evaluation additionally charges lost
  /// reverse-skyline customers — see WhyNotEngine::MqpEvaluationCost).
  /// Candidates sit on c_t's dynamic-skyline staircase (boundary
  /// semantics; nudge by epsilon for strict membership).
  std::vector<Candidate> candidates;
};

/// Algorithm 2: moves the query point q onto the dynamic skyline of c_t
/// with minimum change, so that c_t enters RSL(q*). Ignores the safe
/// region, so existing reverse-skyline customers may be lost.
///
/// Steps: window query for Λ; F = Λ ∩ DSL(c_t) (pairwise dominance in
/// c_t's distance space); staircase candidates in the transformed space
/// with max-merge and q anchoring (Eqns. 5-6); candidates mapped back to
/// the original space on q's side of c_t per dimension.
///
/// Both forms are templates over the product index, explicitly
/// instantiated in mqp.cc for PackedRTree and RStarTree. The engine
/// serves the Fast form below on PackedRTree; this reference form, which
/// materializes Λ, is the oracle for it (tests and bench_ablation_whynot).
template <typename Tree>
MqpResult ModifyQueryPoint(
    const Tree& tree, const std::vector<Point>& products,
    const Point& c_t, const Point& q, const CostModel& cost_model,
    size_t sort_dim = 0,
    std::optional<RStarTree::Id> exclude_id = std::nullopt);

/// ModifyQueryPoint with F = Λ ∩ DSL(c_t) computed directly by a
/// branch-and-bound window-skyline traversal (WindowSkyline with origin
/// c_t) instead of materializing Λ. Candidates are identical; `culprits`
/// then holds only the frontier ids.
template <typename Tree>
MqpResult ModifyQueryPointFast(
    const Tree& tree, const std::vector<Point>& products,
    const Point& c_t, const Point& q, const CostModel& cost_model,
    size_t sort_dim = 0,
    std::optional<RStarTree::Id> exclude_id = std::nullopt);

}  // namespace wnrs

#endif  // WNRS_CORE_MQP_H_
