#ifndef WNRS_CORE_SAFE_REGION_H_
#define WNRS_CORE_SAFE_REGION_H_

#include <optional>
#include <vector>

#include "geometry/region.h"
#include "index/rtree.h"

namespace wnrs {

/// Tuning for safe-region computation (Algorithm 3).
struct SafeRegionOptions {
  /// Sort dimension of the staircase constructions.
  size_t sort_dim = 0;
  /// Hard cap on intermediate rectangle counts; iterated intersections are
  /// pruned but can still grow, and exceeding the cap flags the result.
  size_t max_rectangles = 8192;
};

/// Result of Algorithm 3 (exact) or its approximated variant.
struct SafeRegionResult {
  /// Union-of-rectangles safe region SR(q). Contains q itself (Lemma 2).
  /// When RSL(q) is empty the safe region is the whole data universe.
  RectRegion region;
  /// Number of reverse-skyline customers whose DDR̄ was intersected.
  size_t customers_processed = 0;
  /// True if max_rectangles was hit and the region was truncated to the
  /// highest-volume rectangles (still a subset of the true safe region,
  /// so never unsafe).
  bool truncated = false;
};

/// Exact safe region: SR(q) = intersection over c_l in RSL(q) of
/// DDR̄(c_l) (Lemma 2 / Algorithm 3). Each customer's dynamic skyline is
/// computed over the product tree with BBS (`exclude self` in the
/// shared-relation setting, where customer index == product id).
///
/// `products` maps tree ids to points (id = index); `rsl` holds indices
/// into `customers`; `universe` bounds the rectangle representation (use
/// the dataset bounds, possibly extended to contain q).
SafeRegionResult ComputeSafeRegion(const RStarTree& products_tree,
                                   const std::vector<Point>& products,
                                   const std::vector<Point>& customers,
                                   const std::vector<size_t>& rsl,
                                   const Point& q, const Rectangle& universe,
                                   bool shared_relation,
                                   const SafeRegionOptions& options = {});

/// Approximated safe region from precomputed sampled dynamic skylines
/// (paper, Section VI-B.1): `approx_dsls[i]` holds the sampled transformed
/// DSL of customer i (as produced by ApproximateSkyline). Rectangle pairs
/// are not merged, so the result is a subset of the exact safe region.
SafeRegionResult ComputeApproxSafeRegion(
    const std::vector<Point>& customers,
    const std::vector<std::vector<Point>>& approx_dsls,
    const std::vector<size_t>& rsl, const Point& q,
    const Rectangle& universe, const SafeRegionOptions& options = {});

}  // namespace wnrs

#endif  // WNRS_CORE_SAFE_REGION_H_
