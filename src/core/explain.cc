#include "core/explain.h"

#include "common/logging.h"
#include "geometry/dominance.h"
#include "geometry/transform.h"
#include "index/packed_rtree.h"
#include "reverse_skyline/window_query.h"
#include "skyline/bnl.h"

namespace wnrs {

template <typename Tree>
WhyNotExplanation ExplainWhyNot(const Tree& tree,
                                const std::vector<Point>& products,
                                const Point& c_t, const Point& q,
                                std::optional<RStarTree::Id> exclude_id) {
  WhyNotExplanation out;
  out.culprits = WindowQuery(tree, c_t, q, exclude_id);
  if (out.culprits.empty()) {
    out.already_member = true;
    return out;
  }
  // Frontier: culprits on the q-side skyline of Λ. Algorithm 1 states
  // this as pairwise O(|Λ|^2) dominance tests; BNL over the q-transformed
  // culprits gives the same set in O(|Λ| * |F|).
  std::vector<Point> transformed;
  transformed.reserve(out.culprits.size());
  for (RStarTree::Id id : out.culprits) {
    WNRS_CHECK(static_cast<size_t>(id) < products.size());
    transformed.push_back(
        ToDistanceSpace(products[static_cast<size_t>(id)], q));
  }
  for (size_t idx : SkylineIndicesBnl(transformed)) {
    out.frontier.push_back(out.culprits[idx]);
  }
  return out;
}

template WhyNotExplanation ExplainWhyNot(const RStarTree&,
                                         const std::vector<Point>&,
                                         const Point&, const Point&,
                                         std::optional<RStarTree::Id>);
template WhyNotExplanation ExplainWhyNot(const PackedRTree&,
                                         const std::vector<Point>&,
                                         const Point&, const Point&,
                                         std::optional<RStarTree::Id>);

}  // namespace wnrs
