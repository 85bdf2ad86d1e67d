#ifndef WNRS_INDEX_BULK_LOAD_H_
#define WNRS_INDEX_BULK_LOAD_H_

#include <vector>

#include "index/rtree.h"

namespace wnrs {

/// One record for bulk loading: MBR plus caller-assigned id.
struct BulkEntry {
  Rectangle mbr;
  RStarTree::Id id = -1;
};

/// Builds an R*-tree bottom-up with Sort-Tile-Recursive packing
/// (Leutenegger et al.): entries are tiled into near-full leaves by
/// recursive center-coordinate sorting, then each level is packed the same
/// way until a single root remains. Produces much better-clustered pages
/// than repeated insertion and is how benchmark datasets are indexed.
[[nodiscard]] RStarTree BulkLoadStr(size_t dims,
                                    std::vector<BulkEntry> entries,
                                    RTreeOptions options = RTreeOptions());

/// Convenience: bulk-loads points, assigning id = position in `points`.
[[nodiscard]] RStarTree BulkLoadPoints(size_t dims,
                                       const std::vector<Point>& points,
                                       RTreeOptions options = RTreeOptions());

}  // namespace wnrs

#endif  // WNRS_INDEX_BULK_LOAD_H_
