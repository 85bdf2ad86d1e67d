#ifndef WNRS_CORE_EXPLAIN_H_
#define WNRS_CORE_EXPLAIN_H_

#include <optional>
#include <vector>

#include "index/rtree.h"

namespace wnrs {

/// The first aspect of a why-not answer (paper, Section III): the causes.
struct WhyNotExplanation {
  /// True iff the why-not point is already in RSL(q) — nothing to explain.
  bool already_member = false;
  /// The culprit set Λ = window_query(c_t, q): products the customer finds
  /// more interesting than q. Deleting them all would admit c_t (Lemma 1).
  std::vector<RStarTree::Id> culprits;
  /// The frontier F used by Algorithm 1: culprits not dynamically
  /// dominated by another culprit w.r.t. q (the binding constraints).
  std::vector<RStarTree::Id> frontier;
};

/// Explains why `c_t` is not in RSL(q) over the indexed products.
/// `exclude_id` skips the customer's own tuple in the shared-relation
/// setting. `products` maps tree ids to points (id = index).
///
/// `Tree` is PackedRTree (the engine's read path) or RStarTree (the
/// test and bench oracle); both are explicitly instantiated in
/// explain.cc and return bit-identical answers.
template <typename Tree>
WhyNotExplanation ExplainWhyNot(
    const Tree& tree, const std::vector<Point>& products,
    const Point& c_t, const Point& q,
    std::optional<RStarTree::Id> exclude_id = std::nullopt);

}  // namespace wnrs

#endif  // WNRS_CORE_EXPLAIN_H_
