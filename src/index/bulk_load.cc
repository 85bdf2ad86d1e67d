#include "index/bulk_load.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace wnrs {

/// Friend of RStarTree; owns the node-wiring details of STR packing.
class RTreeBulkLoader {
 public:
  static RStarTree Build(size_t dims, std::vector<BulkEntry> input,
                         RTreeOptions options) {
    RStarTree tree(dims, options);
    if (input.empty()) return tree;

    const size_t capacity = tree.max_entries_;
    // Convert to node entries.
    std::vector<RStarTree::Entry> level;
    level.reserve(input.size());
    for (BulkEntry& be : input) {
      RStarTree::Entry e;
      e.mbr = std::move(be.mbr);
      e.id = be.id;
      level.push_back(std::move(e));
    }
    const size_t data_count = level.size();

    bool leaves = true;
    size_t height = 0;
    while (true) {
      // Pack the current level's entries into nodes.
      std::vector<RStarTree::Node*> nodes =
          PackLevel(dims, &level, capacity, tree.min_entries_, leaves);
      ++height;
      if (nodes.size() == 1) {
        delete tree.root_;
        tree.root_ = nodes.front();
        tree.root_->parent = nullptr;
        tree.size_ = data_count;
        tree.height_ = height;
        return tree;
      }
      // Build the next level's entries from the packed nodes.
      std::vector<RStarTree::Entry> next;
      next.reserve(nodes.size());
      for (RStarTree::Node* n : nodes) {
        RStarTree::Entry e;
        e.mbr = RStarTree::NodeMbr(*n);
        e.child = n;
        next.push_back(std::move(e));
      }
      level = std::move(next);
      leaves = false;
    }
  }

 private:
  /// Recursively tiles `entries` (whole vector consumed) into nodes of at
  /// most `capacity` entries using center-coordinate STR ordering, and
  /// wires child parent pointers.
  static std::vector<RStarTree::Node*> PackLevel(
      size_t dims, std::vector<RStarTree::Entry>* entries, size_t capacity,
      size_t min_fill, bool leaves) {
    std::vector<RStarTree::Node*> nodes;
    TileRecursive(*entries, 0, dims, capacity, min_fill, &nodes, leaves);
    entries->clear();
    return nodes;
  }

  static void TileRecursive(std::vector<RStarTree::Entry>& entries,
                            size_t dim, size_t dims, size_t capacity,
                            size_t min_fill,
                            std::vector<RStarTree::Node*>* out, bool leaves) {
    const size_t n = entries.size();
    const size_t node_count =
        (n + capacity - 1) / capacity;  // Pages needed overall.
    if (node_count <= 1 || dim + 1 == dims) {
      // Final dimension (or everything fits): sort by this dimension's
      // center and cut into consecutive full nodes.
      std::sort(entries.begin(), entries.end(),
                [dim](const RStarTree::Entry& a, const RStarTree::Entry& b) {
                  return a.mbr.lo()[dim] + a.mbr.hi()[dim] <
                         b.mbr.lo()[dim] + b.mbr.hi()[dim];
                });
      for (size_t start = 0; start < n;) {
        size_t end = std::min(n, start + capacity);
        // Balance the remainder so no node (except a lone root) falls
        // below the R*-tree minimum fill.
        if (end < n && n - end < min_fill) {
          end = n - min_fill;
        }
        auto* node = new RStarTree::Node();
        node->is_leaf = leaves;
        node->entries.assign(std::make_move_iterator(entries.begin() +
                                                     static_cast<ptrdiff_t>(start)),
                             std::make_move_iterator(entries.begin() +
                                                     static_cast<ptrdiff_t>(end)));
        if (!leaves) {
          for (RStarTree::Entry& e : node->entries) e.child->parent = node;
        }
        out->push_back(node);
        start = end;
      }
      return;
    }
    // Slice into ~node_count^(1/remaining_dims) slabs along this dimension.
    const size_t remaining_dims = dims - dim;
    const auto slabs = static_cast<size_t>(std::ceil(
        std::pow(static_cast<double>(node_count), 1.0 / remaining_dims)));
    const size_t slab_size = (n + slabs - 1) / slabs;
    std::sort(entries.begin(), entries.end(),
              [dim](const RStarTree::Entry& a, const RStarTree::Entry& b) {
                return a.mbr.lo()[dim] + a.mbr.hi()[dim] <
                       b.mbr.lo()[dim] + b.mbr.hi()[dim];
              });
    for (size_t start = 0; start < n;) {
      size_t end = std::min(n, start + slab_size);
      // Absorb a too-small tail into the current slab; the final cut pass
      // re-balances node sizes.
      if (end < n && n - end < min_fill) {
        end = n;
      }
      std::vector<RStarTree::Entry> slab(
          std::make_move_iterator(entries.begin() +
                                  static_cast<ptrdiff_t>(start)),
          std::make_move_iterator(entries.begin() +
                                  static_cast<ptrdiff_t>(end)));
      TileRecursive(slab, dim + 1, dims, capacity, min_fill, out, leaves);
      start = end;
    }
  }
};

RStarTree BulkLoadStr(size_t dims, std::vector<BulkEntry> entries,
                      RTreeOptions options) {
  return RTreeBulkLoader::Build(dims, std::move(entries), options);
}

RStarTree BulkLoadPoints(size_t dims, const std::vector<Point>& points,
                         RTreeOptions options) {
  std::vector<BulkEntry> entries;
  entries.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    WNRS_CHECK(points[i].dims() == dims);
    entries.push_back(
        {Rectangle::FromPoint(points[i]), static_cast<RStarTree::Id>(i)});
  }
  return BulkLoadStr(dims, std::move(entries), options);
}

}  // namespace wnrs
