#ifndef WNRS_CORE_MWP_H_
#define WNRS_CORE_MWP_H_

#include <optional>
#include <vector>

#include "core/cost.h"
#include "index/rtree.h"

namespace wnrs {

/// Result of Algorithm 1 (Modify Why-Not Point).
struct MwpResult {
  /// True iff c_t was already in RSL(q); candidates then hold just c_t at
  /// cost 0.
  bool already_member = false;
  /// The culprit set Λ returned by the window query.
  std::vector<RStarTree::Id> culprits;
  /// Candidate new locations c_t*, cost-ascending. These lie on the
  /// closed boundary of the feasible region ("pay at least 3K more");
  /// nudge by epsilon toward q for strict reverse-skyline membership.
  std::vector<Candidate> candidates;
};

/// Algorithm 1: moves the why-not customer c_t the minimum amount so that
/// q enters DSL(c_t*) (and hence c_t* enters RSL(q)).
///
/// Steps: window query for Λ; frontier F = q-side skyline of Λ; per
/// frontier point the escape threshold u = midpoint(e, q) per dimension
/// (Eqn. 1 — stated there for the e <= q orientation; the midpoint form
/// is its orientation-independent generalization, applied after mirroring
/// each dimension so that c_t <= q); staircase candidates with min-merge
/// and c_t anchoring (Eqns. 2-3); costs via `cost_model`'s beta weights.
///
/// Both forms are templates over the product index, explicitly
/// instantiated in mwp.cc for PackedRTree and RStarTree. The engine
/// serves the Fast form below on PackedRTree; this reference form, which
/// materializes Λ, is the oracle for it (tests and bench_ablation_whynot).
template <typename Tree>
MwpResult ModifyWhyNotPoint(
    const Tree& tree, const std::vector<Point>& products,
    const Point& c_t, const Point& q, const CostModel& cost_model,
    size_t sort_dim = 0,
    std::optional<RStarTree::Id> exclude_id = std::nullopt);

/// ModifyWhyNotPoint with the frontier computed directly by a
/// branch-and-bound window-skyline traversal (WindowSkyline) instead of
/// materializing Λ — runtime scales with |F| rather than |Λ|. Candidates
/// are identical; `culprits` then holds only the frontier ids.
template <typename Tree>
MwpResult ModifyWhyNotPointFast(
    const Tree& tree, const std::vector<Point>& products,
    const Point& c_t, const Point& q, const CostModel& cost_model,
    size_t sort_dim = 0,
    std::optional<RStarTree::Id> exclude_id = std::nullopt);

}  // namespace wnrs

#endif  // WNRS_CORE_MWP_H_
