#include "core/mwq.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "core/mwp.h"
#include "geometry/dominance.h"
#include "geometry/transform.h"
#include "index/packed_rtree.h"
#include "reverse_skyline/window_query.h"
#include "skyline/bbs.h"
#include "skyline/ddr.h"

namespace wnrs {
namespace {

/// All 2^d corner points of a rectangle, each pulled infinitesimally
/// toward the rectangle's center. Corners lie on the closed boundary of
/// the safe region where an existing reverse-skyline member can be lost
/// to a dominance tie; the interior of a safe rectangle is strictly safe.
void AppendCorners(const Rectangle& r, std::vector<Point>* out) {
  const size_t dims = r.dims();
  WNRS_CHECK(dims < 25);  // 2^d corners; guard absurd dimensionality.
  constexpr double kPull = 1e-9;
  const Point center = r.Center();
  const size_t count = static_cast<size_t>(1) << dims;
  for (size_t mask = 0; mask < count; ++mask) {
    Point corner(dims);
    for (size_t i = 0; i < dims; ++i) {
      corner[i] = (mask >> i) & 1 ? r.hi()[i] : r.lo()[i];
      corner[i] += kPull * (center[i] - corner[i]);
    }
    out->push_back(std::move(corner));
  }
}

}  // namespace

template <typename Tree>
MwqResult ModifyQueryAndWhyNotPoint(
    const Tree& products_tree, const std::vector<Point>& products,
    const Point& c_t, const Point& q, const RectRegion& safe_region,
    const Rectangle& universe, const CostModel& cost_model, size_t sort_dim,
    std::optional<RStarTree::Id> exclude_id,
    const KeepsMembersFn& keeps_members) {
  WNRS_CHECK(c_t.dims() == q.dims());
  MwqResult out;
  if (WindowEmpty(products_tree, c_t, q, exclude_id)) {
    out.already_member = true;
    out.query_candidates.push_back({q, 0.0});
    return out;
  }

  // DDR̄(c_t), rectangle representation.
  const std::vector<RStarTree::Id> dsl =
      BbsDynamicSkyline(products_tree, c_t, exclude_id);
  std::vector<Point> dsl_t;
  dsl_t.reserve(dsl.size());
  for (RStarTree::Id id : dsl) {
    WNRS_CHECK(static_cast<size_t>(id) < products.size());
    dsl_t.push_back(ToDistanceSpace(products[static_cast<size_t>(id)], c_t));
  }
  RectRegion ddr_bar = AntiDominanceRegion(
      c_t, std::move(dsl_t), MaxExtents(c_t, universe), sort_dim);
  ddr_bar.ClipTo(universe);

  // Case split of Table I. Because both regions use closed rectangles, an
  // intersection can be a degenerate (zero-extent) face on which c_t only
  // ties with a frontier product; such an overlap is an artifact, so every
  // C1 candidate is validated with a real membership probe (nudged into
  // the rectangle's interior if the boundary point ties).
  const RectRegion overlap_region = safe_region.Intersect(ddr_bar);
  for (const Rectangle& rect : overlap_region.rects()) {
    const Point center = rect.Center();
    const Point nearest = rect.NearestPointTo(q);
    bool found = false;
    Point q_star;
    for (double pull : {0.0, 1e-9, 1e-6, 1e-3}) {
      Point inner(nearest.dims());
      for (size_t i = 0; i < nearest.dims(); ++i) {
        inner[i] = nearest[i] + pull * (center[i] - nearest[i]);
      }
      if (WindowEmpty(products_tree, c_t, inner, exclude_id) &&
          (keeps_members == nullptr || keeps_members(inner))) {
        q_star = std::move(inner);
        found = true;
        break;
      }
    }
    if (!found) continue;  // Degenerate face; not a usable overlap.
    const double move = cost_model.QueryMoveCost(q, q_star);
    out.query_candidates.push_back({std::move(q_star), move});
  }
  if (!out.query_candidates.empty()) {
    // C1: move q within the overlap; zero cost by Eqn. 10 since q stays
    // inside its safe region.
    out.overlap = true;
    SortCandidates(&out.query_candidates);
    out.best_cost = 0.0;
    return out;
  }

  // C2: push q to the safe-region corners facing c_t, then move c_t the
  // remaining distance with Algorithm 1. q itself is also a zero-cost
  // safe location (Lemma 2), so it joins the candidate set — this
  // guarantees the MWQ answer never costs more than plain MWP.
  std::vector<Point> corners;
  for (const Rectangle& rect : safe_region.rects()) {
    AppendCorners(rect, &corners);
  }
  corners.push_back(q);
  WNRS_CHECK(!corners.empty());
  MetricAdd(CounterId::kCandidatesGenerated, corners.size());

  // Keep corners whose transformed image (c_t as origin) is not dominated:
  // the ones closest to the why-not customer.
  std::vector<Point> corners_t;
  corners_t.reserve(corners.size());
  for (const Point& e : corners) {
    corners_t.push_back(ToDistanceSpace(e, c_t));
  }
  std::vector<size_t> candidates_q;
  for (size_t a = 0; a < corners.size(); ++a) {
    bool dominated = false;
    for (size_t b = 0; b < corners.size() && !dominated; ++b) {
      if (a == b) continue;
      if (Dominates(corners_t[b], corners_t[a])) dominated = true;
      // Exact duplicates: keep the first occurrence only.
      if (corners_t[b] == corners_t[a] && b < a) dominated = true;
    }
    if (dominated) continue;
    // Closed-boundary safety: drop corners that would tie-lose a member.
    // q itself (the last entry) always passes.
    if (keeps_members != nullptr && !keeps_members(corners[a])) continue;
    candidates_q.push_back(a);
  }
  if (candidates_q.empty()) {
    // Every corner was either dominated by a boundary-failing corner or
    // failed validation itself; fall back to keeping q in place.
    candidates_q.push_back(corners.size() - 1);
  }
  MetricAdd(CounterId::kCandidatesExamined, candidates_q.size());

  double best = std::numeric_limits<double>::infinity();
  std::vector<Candidate> all_moves;
  std::vector<std::pair<size_t, double>> corner_best;  // corner -> best cost
  for (size_t idx : candidates_q) {
    const Point& e = corners[idx];
    const MwpResult mwp = ModifyWhyNotPointFast(
        products_tree, products, c_t, e, cost_model, sort_dim, exclude_id);
    double corner_cost = std::numeric_limits<double>::infinity();
    for (const Candidate& cand : mwp.candidates) {
      corner_cost = std::min(corner_cost, cand.cost);
      all_moves.push_back(cand);
    }
    corner_best.emplace_back(idx, corner_cost);
    best = std::min(best, corner_cost);
  }

  // Report the corner(s) achieving the best cost as the query movement,
  // and all why-not movements ranked by Eqn. 11.
  for (const auto& [idx, cost] : corner_best) {
    if (cost <= best) {
      out.query_candidates.push_back(
          {corners[idx], cost_model.QueryMoveCost(q, corners[idx])});
    }
  }
  SortCandidates(&out.query_candidates);
  SortCandidates(&all_moves);
  // Deduplicate movements that differ only by the corner-interior nudge.
  for (Candidate& cand : all_moves) {
    bool duplicate = false;
    for (const Candidate& kept : out.why_not_candidates) {
      if (kept.point.ApproxEquals(cand.point, 1e-6)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.why_not_candidates.push_back(std::move(cand));
  }
  out.best_cost = best;
  return out;
}

template MwqResult ModifyQueryAndWhyNotPoint(
    const RStarTree&, const std::vector<Point>&, const Point&, const Point&,
    const RectRegion&, const Rectangle&, const CostModel&, size_t,
    std::optional<RStarTree::Id>, const KeepsMembersFn&);
template MwqResult ModifyQueryAndWhyNotPoint(
    const PackedRTree&, const std::vector<Point>&, const Point&, const Point&,
    const RectRegion&, const Rectangle&, const CostModel&, size_t,
    std::optional<RStarTree::Id>, const KeepsMembersFn&);

}  // namespace wnrs
