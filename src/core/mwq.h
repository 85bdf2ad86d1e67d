#ifndef WNRS_CORE_MWQ_H_
#define WNRS_CORE_MWQ_H_

#include <functional>
#include <optional>
#include <vector>

#include "core/cost.h"
#include "core/mwp.h"
#include "core/safe_region.h"
#include "geometry/region.h"
#include "index/rtree.h"

namespace wnrs {

/// Result of Algorithm 4 (Modify Query and Why-not Point).
struct MwqResult {
  /// True iff c_t was already in RSL(q).
  bool already_member = false;
  /// Case C1: DDR̄(c_t) overlaps SR(q) — only q moves, at zero cost
  /// (Eqn. 10). Case C2: q moves to the best safe-region corner and c_t
  /// moves the rest of the way.
  bool overlap = false;
  /// New query locations: in C1 the nearest point of each overlap
  /// rectangle to q (Fig. 12); in C2 the safe-region corner(s) paired with
  /// the cheapest why-not movement. Cost field = query-move cost under
  /// alpha (0 within the safe region by definition, reported for insight).
  std::vector<Candidate> query_candidates;
  /// Case C2 only: candidate new locations of c_t, cost-ascending under
  /// beta (Eqn. 11). Empty in case C1.
  std::vector<Candidate> why_not_candidates;
  /// The paper's reported solution cost: 0 for C1, best why-not movement
  /// cost for C2.
  double best_cost = 0.0;
};

/// Predicate verifying that a proposed q* keeps every existing
/// reverse-skyline customer; nullptr skips the check.
using KeepsMembersFn = std::function<bool(const Point& q_star)>;

/// Algorithm 4: answers the why-not question while provably keeping every
/// existing reverse-skyline customer, by confining q to the safe region.
/// `safe_region` must be SR(q) (from ComputeSafeRegion or its approximate
/// variant); `universe` is the same rectangle the safe region was built
/// with. `keeps_members` (when provided) re-validates each proposed q*
/// with real window probes — closed-rectangle boundaries can otherwise
/// tie-lose a member at exactly the region border; candidates failing it
/// are discarded (q itself always passes, so C2 never comes up empty).
MwqResult ModifyQueryAndWhyNotPoint(
    const RStarTree& products_tree, const std::vector<Point>& products,
    const Point& c_t, const Point& q, const RectRegion& safe_region,
    const Rectangle& universe, const CostModel& cost_model,
    size_t sort_dim = 0,
    std::optional<RStarTree::Id> exclude_id = std::nullopt,
    const KeepsMembersFn& keeps_members = nullptr,
    bool fast_frontier = true);

}  // namespace wnrs

#endif  // WNRS_CORE_MWQ_H_
