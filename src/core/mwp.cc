#include "core/mwp.h"

#include <algorithm>
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

/// Mirrors `p` in every dimension where `flip` is set, around the pivot.
/// Per-dimension reflection around q preserves all coordinate distances,
/// so dominance relations in anyone's distance space are unchanged.
Point MirrorAround(const Point& p, const Point& pivot,
                   const std::vector<bool>& flip) {
  Point out = p;
  for (size_t i = 0; i < p.dims(); ++i) {
    if (flip[i]) out[i] = 2.0 * pivot[i] - p[i];
  }
  return out;
}

/// Shared tail of both MWP variants: candidate generation from the
/// frontier (original-space points), feasibility filtering, and costing.
void FinishMwp(const Point& c_t, const Point& q,
               const std::vector<Point>& frontier_original,
               const CostModel& cost_model, size_t sort_dim,
               MwpResult* out) {
  const size_t dims = q.dims();

  // Canonical orientation: mirror dimensions around q so that c_t <= q.
  std::vector<bool> flip(dims, false);
  for (size_t i = 0; i < dims; ++i) flip[i] = c_t[i] > q[i];
  const Point c_canon = MirrorAround(c_t, q, flip);

  // Escape thresholds: per-dimension midpoints between frontier point and
  // q (Eqn. 1 in canonical orientation).
  std::vector<Point> thresholds;
  thresholds.reserve(frontier_original.size());
  for (const Point& e : frontier_original) {
    const Point e_canon = MirrorAround(e, q, flip);
    Point u(dims);
    for (size_t i = 0; i < dims; ++i) u[i] = 0.5 * (e_canon[i] + q[i]);
    thresholds.push_back(std::move(u));
  }

  std::vector<Point> canon_candidates = StaircaseCandidates(
      thresholds, sort_dim, StaircaseMerge::kMin, c_canon);

  // Feasibility: a candidate must escape every threshold box — strictly
  // beyond the midpoint toward q in some dimension, or on a boundary an
  // epsilon nudge toward q can cross (impossible when the culprit ties q
  // in that dimension). Infeasible end candidates arise when a frontier
  // culprit shares a coordinate with q; they are dropped.
  auto feasible = [&](const Point& cc) {
    for (const Point& u : thresholds) {
      bool escapes = false;
      for (size_t i = 0; i < dims && !escapes; ++i) {
        if (cc[i] > u[i] || (cc[i] == u[i] && u[i] < q[i])) escapes = true;
      }
      if (!escapes) return false;
    }
    return true;
  };
  MetricAdd(CounterId::kCandidatesGenerated, canon_candidates.size());
  std::vector<Point> kept;
  kept.reserve(canon_candidates.size());
  for (Point& cc : canon_candidates) {
    if (feasible(cc)) kept.push_back(std::move(cc));
  }
  if (kept.empty()) {
    // Guaranteed-feasible fallback: the coordinate-wise maximum of all
    // thresholds escapes every box in whichever dimensions remain open.
    Point u_max = thresholds.front();
    for (const Point& u : thresholds) {
      for (size_t i = 0; i < dims; ++i) u_max[i] = std::max(u_max[i], u[i]);
    }
    kept.push_back(std::move(u_max));
  }

  MetricAdd(CounterId::kCandidatesExamined, kept.size());
  out->candidates.reserve(kept.size());
  for (const Point& cc : kept) {
    Point c_star = MirrorAround(cc, q, flip);
    const double cost = cost_model.WhyNotMoveCost(c_t, c_star);
    out->candidates.push_back({std::move(c_star), cost});
  }
  SortCandidates(&out->candidates);
}

}  // namespace

MwpResult ModifyWhyNotPoint(const RStarTree& tree,
                            const std::vector<Point>& products,
                            const Point& c_t, const Point& q,
                            const CostModel& cost_model, size_t sort_dim,
                            std::optional<RStarTree::Id> exclude_id) {
  WNRS_CHECK(c_t.dims() == q.dims());
  MwpResult out;
  out.culprits = WindowQuery(tree, c_t, q, exclude_id);
  if (out.culprits.empty()) {
    out.already_member = true;
    out.candidates.push_back({c_t, 0.0});
    return out;
  }

  // Frontier F: culprits closest to q — the skyline of Λ in q's distance
  // space. Computed with BNL (O(|Λ| * |F|)) rather than the pairwise
  // O(|Λ|^2) of the pseudo-code.
  std::vector<Point> lambda_t;
  lambda_t.reserve(out.culprits.size());
  for (RStarTree::Id id : out.culprits) {
    WNRS_CHECK(static_cast<size_t>(id) < products.size());
    lambda_t.push_back(ToDistanceSpace(products[static_cast<size_t>(id)], q));
  }
  std::vector<Point> frontier;
  for (size_t idx : SkylineIndicesBnl(lambda_t)) {
    frontier.push_back(
        products[static_cast<size_t>(out.culprits[idx])]);
  }

  FinishMwp(c_t, q, frontier, cost_model, sort_dim, &out);
  return out;
}

MwpResult ModifyWhyNotPointFast(const RStarTree& tree,
                                const std::vector<Point>& products,
                                const Point& c_t, const Point& q,
                                const CostModel& cost_model, size_t sort_dim,
                                std::optional<RStarTree::Id> exclude_id) {
  WNRS_CHECK(c_t.dims() == q.dims());
  MwpResult out;
  out.culprits = WindowSkyline(tree, c_t, q, /*origin=*/q, exclude_id);
  if (out.culprits.empty()) {
    out.already_member = true;
    out.candidates.push_back({c_t, 0.0});
    return out;
  }
  std::vector<Point> frontier;
  frontier.reserve(out.culprits.size());
  for (RStarTree::Id id : out.culprits) {
    WNRS_CHECK(static_cast<size_t>(id) < products.size());
    frontier.push_back(products[static_cast<size_t>(id)]);
  }
  FinishMwp(c_t, q, frontier, cost_model, sort_dim, &out);
  return out;
}

}  // namespace wnrs
