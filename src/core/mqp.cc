#include "core/mqp.h"

#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "geometry/dominance.h"
#include "geometry/transform.h"
#include "reverse_skyline/window_query.h"
#include "skyline/bnl.h"
#include "skyline/staircase.h"

namespace wnrs {
namespace {

/// Shared tail of both MQP variants: staircase candidates from the
/// frontier in c_t's distance space, feasibility filtering, mapping back
/// to the original space, and costing.
void FinishMqp(const Point& c_t, const Point& q,
               const std::vector<Point>& frontier_t,
               const CostModel& cost_model, size_t sort_dim,
               MqpResult* out) {
  const size_t dims = q.dims();
  const Point q_t = ToDistanceSpace(q, c_t);
  std::vector<Point> candidates_t =
      StaircaseCandidates(frontier_t, sort_dim, StaircaseMerge::kMax, q_t);

  // Feasibility: q* must not be dominated by a frontier culprit in c_t's
  // distance space — some coordinate must be strictly below the culprit's,
  // or on a tie that an epsilon shrink toward c_t can break (impossible
  // when the culprit shares a coordinate with c_t). q* = c_t itself is
  // always feasible (a product matching the preference exactly is always
  // in its dynamic skyline), so it backstops the candidate set.
  auto feasible = [&](const Point& t) {
    for (const Point& f : frontier_t) {
      bool escapes = false;
      for (size_t i = 0; i < dims && !escapes; ++i) {
        if (f[i] > t[i] || (f[i] == t[i] && t[i] > 0.0)) escapes = true;
      }
      if (!escapes) return false;
    }
    return true;
  };
  MetricAdd(CounterId::kCandidatesGenerated, candidates_t.size());
  std::vector<Point> kept;
  kept.reserve(candidates_t.size());
  for (Point& t : candidates_t) {
    if (feasible(t)) kept.push_back(std::move(t));
  }
  if (kept.empty()) {
    kept.push_back(Point(dims));  // All-zero: q* = c_t.
  }

  MetricAdd(CounterId::kCandidatesExamined, kept.size());
  // Map transformed candidates back to the original space. Dynamic-skyline
  // membership depends only on transformed coordinates, so we pick the
  // preimage on q's side of c_t in every dimension, which minimizes
  // |q - q*|.
  out->candidates.reserve(kept.size());
  for (const Point& t : kept) {
    Point q_star(dims);
    for (size_t i = 0; i < dims; ++i) {
      const double side = q[i] >= c_t[i] ? 1.0 : -1.0;
      q_star[i] = c_t[i] + side * t[i];
    }
    const double cost = cost_model.QueryMoveCost(q, q_star);
    out->candidates.push_back({std::move(q_star), cost});
  }
  SortCandidates(&out->candidates);
}

}  // namespace

MqpResult ModifyQueryPoint(const RStarTree& tree,
                           const std::vector<Point>& products,
                           const Point& c_t, const Point& q,
                           const CostModel& cost_model, size_t sort_dim,
                           std::optional<RStarTree::Id> exclude_id) {
  WNRS_CHECK(c_t.dims() == q.dims());
  MqpResult out;
  out.culprits = WindowQuery(tree, c_t, q, exclude_id);
  if (out.culprits.empty()) {
    out.already_member = true;
    out.candidates.push_back({q, 0.0});
    return out;
  }

  // F = Λ ∩ DSL(c_t): culprits not dynamically dominated w.r.t. c_t by
  // another culprit (the paper's trick for skipping a full DSL
  // computation). Work directly in c_t's distance space.
  std::vector<Point> lambda_t;
  lambda_t.reserve(out.culprits.size());
  for (RStarTree::Id id : out.culprits) {
    WNRS_CHECK(static_cast<size_t>(id) < products.size());
    lambda_t.push_back(
        ToDistanceSpace(products[static_cast<size_t>(id)], c_t));
  }
  std::vector<Point> frontier_t;
  for (size_t idx : SkylineIndicesBnl(lambda_t)) {
    frontier_t.push_back(lambda_t[idx]);
  }
  FinishMqp(c_t, q, frontier_t, cost_model, sort_dim, &out);
  return out;
}

MqpResult ModifyQueryPointFast(const RStarTree& tree,
                               const std::vector<Point>& products,
                               const Point& c_t, const Point& q,
                               const CostModel& cost_model, size_t sort_dim,
                               std::optional<RStarTree::Id> exclude_id) {
  WNRS_CHECK(c_t.dims() == q.dims());
  MqpResult out;
  out.culprits = WindowSkyline(tree, c_t, q, /*origin=*/c_t, exclude_id);
  if (out.culprits.empty()) {
    out.already_member = true;
    out.candidates.push_back({q, 0.0});
    return out;
  }
  std::vector<Point> frontier_t;
  frontier_t.reserve(out.culprits.size());
  for (RStarTree::Id id : out.culprits) {
    WNRS_CHECK(static_cast<size_t>(id) < products.size());
    frontier_t.push_back(
        ToDistanceSpace(products[static_cast<size_t>(id)], c_t));
  }
  FinishMqp(c_t, q, frontier_t, cost_model, sort_dim, &out);
  return out;
}

}  // namespace wnrs
