#include "core/safe_region.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "geometry/transform.h"
#include "skyline/bbs.h"
#include "skyline/ddr.h"

namespace wnrs {
namespace {

/// Caps `region` at `max_rectangles` constituents, keeping the largest.
bool TruncateRegion(RectRegion* region, size_t max_rectangles) {
  if (region->size() <= max_rectangles) return false;
  std::vector<Rectangle> rects = region->rects();
  std::sort(rects.begin(), rects.end(),
            [](const Rectangle& a, const Rectangle& b) {
              return a.Volume() > b.Volume();
            });
  rects.resize(max_rectangles);
  *region = RectRegion(std::move(rects));
  return true;
}

/// Shared intersection loop over per-customer anti-dominance regions.
template <typename RegionForCustomer>
SafeRegionResult IntersectRegions(const std::vector<size_t>& rsl,
                                  const Rectangle& universe,
                                  const SafeRegionOptions& options,
                                  const RegionForCustomer& region_for) {
  SafeRegionResult out;
  out.region.Add(universe);
  // Pairwise rectangle products accumulate heavy redundancy across
  // iterations; re-canonicalize once the representation grows past what
  // the paper-style overlapping form stays readable at.
  constexpr size_t kCanonicalizeThreshold = 64;
  for (size_t customer : rsl) {
    RectRegion ddr_bar = region_for(customer);
    ddr_bar.ClipTo(universe);
    out.region = out.region.Intersect(ddr_bar);
    ++out.customers_processed;
    if (out.region.size() > kCanonicalizeThreshold) {
      out.region.Canonicalize();
    }
    if (TruncateRegion(&out.region, options.max_rectangles)) {
      out.truncated = true;
    }
    if (out.region.empty()) break;
  }
  MetricAdd(CounterId::kSafeRegionsComputed);
  MetricAdd(CounterId::kSafeRegionRects, out.region.size());
  MetricRecord(HistogramId::kSafeRegionRectsPerQuery, out.region.size());
  return out;
}

}  // namespace

SafeRegionResult ComputeSafeRegion(const RStarTree& products_tree,
                                   const std::vector<Point>& products,
                                   const std::vector<Point>& customers,
                                   const std::vector<size_t>& rsl,
                                   const Point& q, const Rectangle& universe,
                                   bool shared_relation,
                                   const SafeRegionOptions& options) {
  WNRS_CHECK(q.dims() == universe.dims());
  return IntersectRegions(rsl, universe, options, [&](size_t customer) {
    WNRS_CHECK(customer < customers.size());
    const Point& c = customers[customer];
    std::optional<RStarTree::Id> exclude;
    if (shared_relation) exclude = static_cast<RStarTree::Id>(customer);
    const std::vector<RStarTree::Id> dsl =
        BbsDynamicSkyline(products_tree, c, exclude);
    std::vector<Point> dsl_t;
    dsl_t.reserve(dsl.size());
    for (RStarTree::Id id : dsl) {
      WNRS_CHECK(static_cast<size_t>(id) < products.size());
      dsl_t.push_back(
          ToDistanceSpace(products[static_cast<size_t>(id)], c));
    }
    return AntiDominanceRegion(c, std::move(dsl_t),
                               MaxExtents(c, universe), options.sort_dim);
  });
}

SafeRegionResult ComputeApproxSafeRegion(
    const std::vector<Point>& customers,
    const std::vector<std::vector<Point>>& approx_dsls,
    const std::vector<size_t>& rsl, const Point& q,
    const Rectangle& universe, const SafeRegionOptions& options) {
  WNRS_CHECK(q.dims() == universe.dims());
  return IntersectRegions(rsl, universe, options, [&](size_t customer) {
    WNRS_CHECK(customer < customers.size());
    WNRS_CHECK(customer < approx_dsls.size());
    const Point& c = customers[customer];
    return ApproxAntiDominanceRegion(c, approx_dsls[customer],
                                     MaxExtents(c, universe),
                                     options.sort_dim);
  });
}

}  // namespace wnrs
