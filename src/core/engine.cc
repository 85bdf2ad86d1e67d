#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/strict.h"
#include "core/validate.h"
#include "geometry/transform.h"
#include "index/bulk_load.h"
#include "index/packed_rtree.h"
#include "index/validate.h"
#include "reverse_skyline/bbrs.h"
#include "reverse_skyline/window_query.h"
#include "skyline/approx.h"
#include "skyline/bbs.h"
#include "storage/engine_store.h"
#include "storage/file_io.h"
#include "storage/packed_slab.h"
#include "storage/tree_store.h"

namespace wnrs {
namespace {

/// Bound on the query-keyed reverse-skyline memo; evicted FIFO. Workloads
/// revisit a handful of query points (the paper's batch setting), so a
/// small bound suffices and keeps lookup a linear scan.
constexpr size_t kRslCacheCapacity = 64;

/// Bound on the per-core safe-region caches (exact and approximated).
/// Concurrent serving interleaves several query points, so the cache
/// holds a few of them instead of the single most recent one; entries are
/// shared_ptr so an evicted result stays alive for whoever holds it.
constexpr size_t kSrCacheCapacity = 8;

Rectangle UnionBounds(const Dataset& a, const Dataset& b) {
  Rectangle bounds = a.Bounds();
  if (!b.points.empty()) {
    bounds = bounds.BoundingUnion(b.Bounds());
  }
  return bounds;
}

CostModel MakeCostModel(const Rectangle& universe,
                        const WhyNotEngineOptions& options) {
  std::vector<double> alpha = options.alpha;
  std::vector<double> beta = options.beta;
  if (alpha.empty()) alpha = EqualWeights(universe.dims());
  if (beta.empty()) beta = EqualWeights(universe.dims());
  return CostModel(universe, std::move(alpha), std::move(beta));
}

/// Anchors for the reference-returning legacy SafeRegion/ApproxSafeRegion
/// facade methods: the last result handed out on this thread is pinned
/// here, so the reference stays valid across cache eviction and engine
/// mutation until the thread's next call.
thread_local std::shared_ptr<const SafeRegionResult> tls_sr_anchor;
thread_local std::shared_ptr<const SafeRegionResult> tls_approx_sr_anchor;

}  // namespace

namespace internal {

/// Everything WhyNotEngine::Open reconstructs from a bundle directory
/// before it can seed an EngineCore. Cross-file consistency is verified
/// by Open (Status, not aborts) before the core constructor runs.
struct RestoredEngineParts {
  WhyNotEngineOptions options;
  bool shared_relation = false;
  std::shared_ptr<const Dataset> products;
  std::shared_ptr<const Dataset> customers;
  std::shared_ptr<const RStarTree> tree;
  std::shared_ptr<const RStarTree> customer_tree;
  std::shared_ptr<const PackedRTree> packed_tree;
  std::shared_ptr<const PackedRTree> packed_customer_tree;
  std::vector<bool> removed;
  Rectangle universe;
  std::shared_ptr<ThreadPool> pool;
};

/// The immutable heart of the engine. Every field set up at construction
/// is read-only afterwards; the caches at the bottom are internally
/// synchronized, so a core is safe to share between any number of
/// threads. Mutations never touch a published core — they copy it (the
/// heavyweight components are shared_ptrs, copied only when they actually
/// change) and publish the copy.
struct EngineCore {
  WhyNotEngineOptions options;
  bool shared_relation = false;
  std::shared_ptr<const Dataset> products;
  /// Bichromatic mode only; null when the relation is shared.
  std::shared_ptr<const Dataset> customers;
  std::shared_ptr<const RStarTree> tree;
  std::shared_ptr<const RStarTree> customer_tree;
  /// Frozen arena images of the trees above; every query kind reads
  /// these, never the dynamic trees. Rebuilt by every mutation that
  /// changes the corresponding source tree; in shared-relation mode
  /// packed_customer_tree stays null (packed_tree plays both roles, like
  /// `tree`).
  std::shared_ptr<const PackedRTree> packed_tree;
  std::shared_ptr<const PackedRTree> packed_customer_tree;
  /// Tombstones (shared-relation customers disappear with their product).
  std::vector<bool> removed;
  Rectangle universe;
  CostModel cost_model;
  /// Section VI-B.1 offline store; null/empty = absent.
  std::shared_ptr<const std::vector<std::vector<Point>>> approx_dsls;
  size_t approx_k = 0;
  std::shared_ptr<ThreadPool> pool;

  // Derived caches. Mutex-guarded FIFO memos keyed by query point; the
  // values are shared_ptr (safe-region) or plain vectors (RSL) and are
  // computed outside the lock, first insert wins.
  mutable Mutex rsl_mu;
  mutable std::vector<std::pair<Point, std::vector<size_t>>> rsl_memo
      WNRS_GUARDED_BY(rsl_mu);
  mutable Mutex sr_mu;
  mutable std::vector<std::pair<Point, std::shared_ptr<const SafeRegionResult>>>
      sr_cache WNRS_GUARDED_BY(sr_mu);
  mutable Mutex approx_sr_mu;
  mutable std::vector<std::pair<Point, std::shared_ptr<const SafeRegionResult>>>
      approx_sr_cache WNRS_GUARDED_BY(approx_sr_mu);

  EngineCore(Dataset products_in, WhyNotEngineOptions options_in,
             std::shared_ptr<ThreadPool> pool_in)
      : options(options_in),
        shared_relation(true),
        products(std::make_shared<const Dataset>(std::move(products_in))),
        tree(std::make_shared<const RStarTree>(BulkLoadPoints(
            products->dims, products->points, options.rtree))),
        packed_tree(
            std::make_shared<const PackedRTree>(PackedRTree::Freeze(*tree))),
        universe(products->Bounds()),
        cost_model(MakeCostModel(universe, options)),
        pool(std::move(pool_in)) {
    WNRS_CHECK(!products->points.empty());
    ParanoidCheckIndex();
  }

  EngineCore(Dataset products_in, Dataset customers_in,
             WhyNotEngineOptions options_in,
             std::shared_ptr<ThreadPool> pool_in)
      : options(options_in),
        shared_relation(false),
        products(std::make_shared<const Dataset>(std::move(products_in))),
        customers(std::make_shared<const Dataset>(std::move(customers_in))),
        tree(std::make_shared<const RStarTree>(BulkLoadPoints(
            products->dims, products->points, options.rtree))),
        customer_tree(std::make_shared<const RStarTree>(BulkLoadPoints(
            customers->dims, customers->points, options.rtree))),
        packed_tree(
            std::make_shared<const PackedRTree>(PackedRTree::Freeze(*tree))),
        packed_customer_tree(std::make_shared<const PackedRTree>(
            PackedRTree::Freeze(*customer_tree))),
        universe(UnionBounds(*products, *customers)),
        cost_model(MakeCostModel(universe, options)),
        pool(std::move(pool_in)) {
    WNRS_CHECK(products->dims == customers->dims);
    WNRS_CHECK(!products->points.empty());
    WNRS_CHECK(!customers->points.empty());
    ParanoidCheckIndex();
  }

  /// Restore constructor (WhyNotEngine::Open): adopts components loaded
  /// from a bundle instead of building them from raw datasets. The
  /// universe comes from the bundle, not from Bounds() — AddProduct may
  /// have widened it past the current points — and the cost model is
  /// recomputed from that persisted universe, so cost numbers match the
  /// saved engine exactly.
  explicit EngineCore(RestoredEngineParts parts)
      : options(std::move(parts.options)),
        shared_relation(parts.shared_relation),
        products(std::move(parts.products)),
        customers(std::move(parts.customers)),
        tree(std::move(parts.tree)),
        customer_tree(std::move(parts.customer_tree)),
        packed_tree(std::move(parts.packed_tree)),
        packed_customer_tree(std::move(parts.packed_customer_tree)),
        removed(std::move(parts.removed)),
        universe(std::move(parts.universe)),
        cost_model(MakeCostModel(universe, options)),
        pool(std::move(parts.pool)) {
    WNRS_CHECK(products != nullptr && !products->points.empty());
    WNRS_CHECK(shared_relation == (customers == nullptr));
    WNRS_CHECK(packed_tree != nullptr);
    WNRS_CHECK((customer_tree == nullptr) == (packed_customer_tree == nullptr));
    ParanoidCheckIndex();
  }

  /// Copy-on-write seed: copies the state, starts with fresh (empty)
  /// caches. Mutations adjust the fields that changed and publish.
  EngineCore(const EngineCore& other)
      : options(other.options),
        shared_relation(other.shared_relation),
        products(other.products),
        customers(other.customers),
        tree(other.tree),
        customer_tree(other.customer_tree),
        packed_tree(other.packed_tree),
        packed_customer_tree(other.packed_customer_tree),
        removed(other.removed),
        universe(other.universe),
        cost_model(other.cost_model),
        approx_dsls(other.approx_dsls),
        approx_k(other.approx_k),
        pool(other.pool) {}
  EngineCore& operator=(const EngineCore&) = delete;

  const Dataset& customer_dataset() const {
    return shared_relation ? *products : *customers;
  }

  bool HasApproxDsls() const {
    return approx_dsls != nullptr && !approx_dsls->empty();
  }

  std::optional<RStarTree::Id> ExcludeFor(size_t customer_index) const {
    if (!shared_relation) return std::nullopt;
    return static_cast<RStarTree::Id>(customer_index);
  }

  const Point& CustomerPoint(size_t c) const {
    const Dataset& ds = customer_dataset();
    WNRS_CHECK(c < ds.points.size());
    return ds.points[c];
  }

  // ---- Input validation (the Try* layer's non-aborting counterparts of
  // the WNRS_CHECKs above). ----

  Status ValidatePoint(const Point& p, const char* what) const {
    if (p.dims() != products->dims) {
      return Status::InvalidArgument(
          StrFormat("%s has %zu dimensions, engine has %zu", what, p.dims(),
                    products->dims));
    }
    for (size_t i = 0; i < p.dims(); ++i) {
      if (!std::isfinite(p[i])) {
        return Status::InvalidArgument(
            StrFormat("%s has a non-finite coordinate at dimension %zu", what,
                      i));
      }
    }
    return Status::Ok();
  }

  Status ValidateQuery(const Point& q) const {
    return ValidatePoint(q, "query point");
  }

  Status ValidateCustomer(size_t c) const {
    const Dataset& ds = customer_dataset();
    if (c >= ds.points.size()) {
      return Status::OutOfRange(
          StrFormat("customer index %zu out of range (engine has %zu)", c,
                    ds.points.size()));
    }
    if (shared_relation && c < removed.size() && removed[c]) {
      return Status::NotFound(
          StrFormat("customer %zu refers to a removed product", c));
    }
    return Status::Ok();
  }

  Status ValidateApproxStore() const {
    if (!HasApproxDsls()) {
      return Status::FailedPrecondition(
          "approximated-DSL store missing; run PrecomputeApproxDsls or "
          "LoadApproxDsls first");
    }
    return Status::Ok();
  }

  // ---- paranoid_checks hooks (deep validators; see core/validate.h and
  // index/validate.h). Violations abort: never serve a wrong answer. ----

  AnswerValidationInput MakeValidationInput() const {
    AnswerValidationInput in;
    in.products_tree = tree.get();
    in.customers = &customer_dataset().points;
    in.shared_relation = shared_relation;
    in.epsilon_fraction = options.epsilon_fraction;
    in.universe = universe;
    in.cost_model = &cost_model;
    return in;
  }

  /// Structural validation of the index state: dynamic tree invariants
  /// plus packed-image parity. Called at construction and after every
  /// mutation when paranoid_checks is on.
  void ParanoidCheckIndex() const {
    if (!options.paranoid_checks) return;
    Status s = ValidateTree(*tree);
    WNRS_CHECK(s.ok()) << "paranoid product tree: " << s.ToString();
    if (customer_tree != nullptr) {
      s = ValidateTree(*customer_tree);
      WNRS_CHECK(s.ok()) << "paranoid customer tree: " << s.ToString();
    }
    s = ValidatePacked(*packed_tree);
    WNRS_CHECK(s.ok()) << "paranoid packed tree: " << s.ToString();
    s = ValidatePackedMatchesDynamic(*packed_tree, *tree);
    WNRS_CHECK(s.ok()) << "paranoid packed parity: " << s.ToString();
    if (packed_customer_tree != nullptr) {
      s = ValidatePackedMatchesDynamic(*packed_customer_tree, *customer_tree);
      WNRS_CHECK(s.ok()) << "paranoid packed customer parity: "
                         << s.ToString();
    }
  }

  // ---- Read path. All const; every query runs on the packed trees.
  // Results are bit-identical regardless of thread count or cache
  // state. ----

  /// The probe NudgeToStrictMember and the strict post-passes run on,
  /// with customer `c`'s own-tuple exclusion bound in.
  StrictWindowEmptyFn StrictProbeFor(size_t c) const {
    return [this, c](const Point& cc, const Point& qq) {
      return WindowEmpty(*packed_tree, cc, qq, ExcludeFor(c));
    };
  }

  std::vector<size_t> ComputeReverseSkyline(const Point& q) const {
    const std::vector<RStarTree::Id> ids =
        shared_relation
            ? BbrsReverseSkyline(*packed_tree, q, pool.get())
            : BbrsReverseSkylineBichromatic(*packed_customer_tree,
                                            *packed_tree, q,
                                            /*shared_relation=*/false,
                                            pool.get());
    std::vector<size_t> out;
    out.reserve(ids.size());
    for (RStarTree::Id id : ids) out.push_back(static_cast<size_t>(id));
    return out;
  }

  std::vector<size_t> ReverseSkyline(const Point& q) const {
    {
      MutexLock lock(rsl_mu);
      for (const auto& [key, rsl] : rsl_memo) {
        if (key == q) {
          MetricAdd(CounterId::kRslCacheHits);
          return rsl;
        }
      }
    }
    MetricAdd(CounterId::kRslCacheMisses);
    // Compute outside the lock; concurrent misses for the same q may both
    // compute, but the results are identical and the first insert wins.
    std::vector<size_t> out = ComputeReverseSkyline(q);
    MutexLock lock(rsl_mu);
    for (const auto& [key, rsl] : rsl_memo) {
      if (key == q) return rsl;
    }
    if (rsl_memo.size() >= kRslCacheCapacity) {
      rsl_memo.erase(rsl_memo.begin());
      MetricAdd(CounterId::kRslCacheEvictions);
    }
    rsl_memo.emplace_back(q, out);
    MetricSetGauge(GaugeId::kRslCacheSize,
                   static_cast<int64_t>(rsl_memo.size()));
    return out;
  }

  bool IsReverseSkylineMember(size_t c, const Point& q) const {
    return WindowEmpty(*packed_tree, CustomerPoint(c), q, ExcludeFor(c));
  }

  std::vector<size_t> CustomersInRange(const Rectangle& window) const {
    const PackedRTree& t =
        shared_relation ? *packed_tree : *packed_customer_tree;
    // RangeQueryIds returns ascending ids.
    const std::vector<RStarTree::Id> ids = t.RangeQueryIds(window);
    std::vector<size_t> out;
    out.reserve(ids.size());
    for (RStarTree::Id id : ids) out.push_back(static_cast<size_t>(id));
    return out;
  }

  WhyNotExplanation Explain(size_t c, const Point& q) const {
    return ExplainWhyNot(*packed_tree, products->points, CustomerPoint(c), q,
                         ExcludeFor(c));
  }

  std::optional<Point> NudgeToStrictMember(const Point& c_star, const Point& q,
                                           size_t customer_index) const {
    return NudgeToStrictMemberImpl(c_star, q, universe,
                                   options.epsilon_fraction,
                                   StrictProbeFor(customer_index));
  }

  /// The query-side twin of NudgeToStrictMember: moves q* epsilon toward
  /// the customer per dimension (shrinking the membership window) until
  /// c_t is a strict member under the nudged query.
  std::optional<Point> NudgeQueryToStrict(const Point& q_star,
                                          size_t customer_index) const {
    return NudgeQueryToStrictImpl(q_star, CustomerPoint(customer_index),
                                  universe, options.epsilon_fraction,
                                  StrictProbeFor(customer_index));
  }

  // Semantics::kStrict post-passes (core/strict.h), bound to this core's
  // window probe and cost model.

  void ApplyStrictMwp(size_t c, const Point& q, MwpResult* r) const {
    ApplyStrictMwpImpl(CustomerPoint(c), q, cost_model, universe,
                       options.epsilon_fraction, StrictProbeFor(c), r);
  }

  void ApplyStrictMqp(size_t c, const Point& q, MqpResult* r) const {
    ApplyStrictMqpImpl(CustomerPoint(c), q, cost_model, universe,
                       options.epsilon_fraction, StrictProbeFor(c), r);
  }

  void ApplyStrictMwq(size_t c, MwqResult* r) const {
    ApplyStrictMwqImpl(CustomerPoint(c), cost_model, universe,
                       options.epsilon_fraction, StrictProbeFor(c), r);
  }

  MwpResult ModifyWhyNot(size_t c, const Point& q, Semantics semantics) const {
    MwpResult out = ModifyWhyNotPointFast(*packed_tree, products->points,
                                          CustomerPoint(c), q, cost_model,
                                          options.sort_dim, ExcludeFor(c));
    if (semantics == Semantics::kStrict) ApplyStrictMwp(c, q, &out);
    if (options.paranoid_checks) {
      const Status s = ValidateMwpAnswer(MakeValidationInput(), c, q, out);
      WNRS_CHECK(s.ok()) << "paranoid MWP answer: " << s.ToString();
    }
    return out;
  }

  MqpResult ModifyQuery(size_t c, const Point& q, Semantics semantics) const {
    MqpResult out = ModifyQueryPointFast(*packed_tree, products->points,
                                         CustomerPoint(c), q, cost_model,
                                         options.sort_dim, ExcludeFor(c));
    if (semantics == Semantics::kStrict) ApplyStrictMqp(c, q, &out);
    if (options.paranoid_checks) {
      const Status s = ValidateMqpAnswer(MakeValidationInput(), c, q, out);
      WNRS_CHECK(s.ok()) << "paranoid MQP answer: " << s.ToString();
    }
    return out;
  }

  std::shared_ptr<const SafeRegionResult> SafeRegion(const Point& q) const {
    {
      MutexLock lock(sr_mu);
      for (const auto& [key, sr] : sr_cache) {
        if (key == q) return sr;
      }
    }
    SafeRegionOptions sr_options;
    sr_options.sort_dim = options.sort_dim;
    sr_options.max_rectangles = options.max_safe_region_rectangles;
    const std::vector<size_t> rsl = ReverseSkyline(q);
    auto computed = std::make_shared<const SafeRegionResult>(
        ComputeSafeRegion(*packed_tree, products->points,
                          customer_dataset().points, rsl, q, universe,
                          shared_relation, sr_options));
    if (options.paranoid_checks) {
      const Status s =
          ValidateSafeRegion(MakeValidationInput(), rsl, q, *computed);
      WNRS_CHECK(s.ok()) << "paranoid safe region: " << s.ToString();
    }
    MutexLock lock(sr_mu);
    for (const auto& [key, sr] : sr_cache) {
      if (key == q) return sr;
    }
    if (sr_cache.size() >= kSrCacheCapacity) {
      sr_cache.erase(sr_cache.begin());
    }
    sr_cache.emplace_back(q, computed);
    return computed;
  }

  std::shared_ptr<const SafeRegionResult> ApproxSafeRegion(
      const Point& q) const {
    WNRS_CHECK(HasApproxDsls());
    {
      MutexLock lock(approx_sr_mu);
      for (const auto& [key, sr] : approx_sr_cache) {
        if (key == q) return sr;
      }
    }
    SafeRegionOptions sr_options;
    sr_options.sort_dim = options.sort_dim;
    sr_options.max_rectangles = options.max_safe_region_rectangles;
    const std::vector<size_t> rsl = ReverseSkyline(q);
    auto computed = std::make_shared<const SafeRegionResult>(
        ComputeApproxSafeRegion(customer_dataset().points, *approx_dsls, rsl,
                                q, universe, sr_options));
    if (options.paranoid_checks) {
      // The approximated region must be sound too — it is a subset of the
      // exact safe region by construction, so the same sampled probes
      // apply unchanged.
      const Status s =
          ValidateSafeRegion(MakeValidationInput(), rsl, q, *computed);
      WNRS_CHECK(s.ok()) << "paranoid approx safe region: " << s.ToString();
    }
    MutexLock lock(approx_sr_mu);
    for (const auto& [key, sr] : approx_sr_cache) {
      if (key == q) return sr;
    }
    if (approx_sr_cache.size() >= kSrCacheCapacity) {
      approx_sr_cache.erase(approx_sr_cache.begin());
    }
    approx_sr_cache.emplace_back(q, computed);
    return computed;
  }

  SafeRegionResult ConstrainedSafeRegion(const Point& q,
                                         const Rectangle& limits) const {
    WNRS_CHECK(limits.dims() == q.dims());
    SafeRegionResult out = *SafeRegion(q);
    out.region.ClipTo(limits);
    if (!out.region.Contains(q)) {
      out.region.Add(Rectangle::FromPoint(q));
    }
    return out;
  }

  KeepsMembersFn MakeKeepsMembersFn(const Point& q) const {
    std::vector<size_t> rsl = ReverseSkyline(q);
    return [this, rsl = std::move(rsl)](const Point& q_star) {
      // One independent membership probe per RSL member. Inside an outer
      // parallel loop (batch answering) this degrades to the serial scan.
      std::atomic<bool> keeps{true};
      pool->ParallelFor(0, rsl.size(), [&](size_t i) {
        if (!keeps.load(std::memory_order_relaxed)) return;
        if (!WindowEmpty(*packed_tree, CustomerPoint(rsl[i]), q_star,
                         ExcludeFor(rsl[i]))) {
          keeps.store(false, std::memory_order_relaxed);
        }
      });
      return keeps.load(std::memory_order_relaxed);
    };
  }

  /// MWQ results are re-proved against RSL(q) (cached) when paranoid.
  void ParanoidCheckMwq(size_t c, const Point& q, const MwqResult& out) const {
    if (!options.paranoid_checks) return;
    const Status s =
        ValidateMwqAnswer(MakeValidationInput(), c, q, ReverseSkyline(q), out);
    WNRS_CHECK(s.ok()) << "paranoid MWQ answer: " << s.ToString();
  }

  MwqResult ModifyBoth(size_t c, const Point& q, Semantics semantics) const {
    std::shared_ptr<const SafeRegionResult> sr = SafeRegion(q);
    MwqResult out = ModifyQueryAndWhyNotPoint(
        *packed_tree, products->points, CustomerPoint(c), q, sr->region,
        universe, cost_model, options.sort_dim, ExcludeFor(c),
        MakeKeepsMembersFn(q));
    if (semantics == Semantics::kStrict) ApplyStrictMwq(c, &out);
    ParanoidCheckMwq(c, q, out);
    return out;
  }

  MwqResult ModifyBothApprox(size_t c, const Point& q,
                             Semantics semantics) const {
    std::shared_ptr<const SafeRegionResult> sr = ApproxSafeRegion(q);
    MwqResult out = ModifyQueryAndWhyNotPoint(
        *packed_tree, products->points, CustomerPoint(c), q, sr->region,
        universe, cost_model, options.sort_dim, ExcludeFor(c),
        MakeKeepsMembersFn(q));
    if (semantics == Semantics::kStrict) ApplyStrictMwq(c, &out);
    ParanoidCheckMwq(c, q, out);
    return out;
  }

  MwqResult ModifyBothConstrained(size_t c, const Point& q,
                                  const Rectangle& limits,
                                  Semantics semantics) const {
    const SafeRegionResult sr = ConstrainedSafeRegion(q, limits);
    MwqResult out = ModifyQueryAndWhyNotPoint(
        *packed_tree, products->points, CustomerPoint(c), q, sr.region,
        universe, cost_model, options.sort_dim, ExcludeFor(c),
        MakeKeepsMembersFn(q));
    if (semantics == Semantics::kStrict) ApplyStrictMwq(c, &out);
    ParanoidCheckMwq(c, q, out);
    return out;
  }

  std::vector<size_t> LostCustomers(const Point& q, const Point& q_star) const {
    const std::vector<size_t> members = ReverseSkyline(q);
    const std::vector<unsigned char> is_lost =
        pool->ParallelMap<unsigned char>(members.size(), [&](size_t i) {
          return WindowEmpty(*packed_tree, CustomerPoint(members[i]), q_star,
                             ExcludeFor(members[i]))
                     ? static_cast<unsigned char>(0)
                     : static_cast<unsigned char>(1);
        });
    std::vector<size_t> lost;
    for (size_t i = 0; i < members.size(); ++i) {
      if (is_lost[i] != 0) lost.push_back(members[i]);
    }
    return lost;
  }

  std::vector<MwqResult> ModifyBothBatch(const std::vector<size_t>& whos,
                                         const Point& q, bool use_approx,
                                         Semantics semantics) const {
    // Materialize the safe region and RSL(q) once, before fanning out.
    // The caches are synchronized, so this is a performance (and counter
    // determinism) measure, not a safety one: without it every worker
    // missing the cold cache would redundantly compute the same region.
    if (use_approx) {
      // wnrs-lint: allow-discard(cache prewarm; workers re-read the value)
      (void)ApproxSafeRegion(q);
    } else {
      // wnrs-lint: allow-discard(cache prewarm; workers re-read the value)
      (void)SafeRegion(q);
    }
    // wnrs-lint: allow-discard(cache prewarm; workers re-read the value)
    (void)ReverseSkyline(q);
    return pool->ParallelMap<MwqResult>(whos.size(), [&](size_t i) {
      return use_approx ? ModifyBothApprox(whos[i], q, semantics)
                        : ModifyBoth(whos[i], q, semantics);
    });
  }

  double MqpEvaluationCost(const Point& q, const Point& q_star) const {
    // alpha-cost of leaving the safe region: distance from the closest
    // safe point q' to q*.
    std::shared_ptr<const SafeRegionResult> sr = SafeRegion(q);
    double cost = 0.0;
    if (!sr->region.empty()) {
      const Point q_prime = sr->region.NearestPointTo(q_star);
      cost += cost_model.QueryMoveCost(q_prime, q_star);
    } else {
      cost += cost_model.QueryMoveCost(q, q_star);
    }
    // beta-cost of winning back every lost reverse-skyline customer. The
    // per-member costs are computed in parallel but summed in member
    // order, keeping the total bit-identical to the serial loop.
    const std::vector<size_t> rsl = ReverseSkyline(q);
    const std::vector<double> win_back =
        pool->ParallelMap<double>(rsl.size(), [&](size_t i) {
          const size_t c = rsl[i];
          if (IsReverseSkylineMember(c, q_star)) return 0.0;
          const MwpResult mwp = ModifyWhyNot(c, q_star, Semantics::kBoundary);
          return mwp.candidates.empty() ? 0.0 : mwp.candidates.front().cost;
        });
    for (double v : win_back) cost += v;
    return cost;
  }
};

}  // namespace internal

/// Snapshot-delta scope. The constructor captures the registry at entry
/// of the outermost public call; the destructor captures again and books
/// the difference into the engine's cumulative and last-call stats. The
/// depth counter is engine-wide (not thread-local), so with overlapping
/// concurrent calls the first one in attributes the whole window — the
/// cumulative totals stay exact, per-call attribution becomes aggregate.
class WhyNotEngine::StatsScope {
 public:
  explicit StatsScope(const WhyNotEngine* engine) : engine_(engine) {
    outermost_ =
        engine_->stats_depth_.fetch_add(1, std::memory_order_relaxed) == 0;
    if (outermost_) {
      start_ = MetricsRegistry::Default().CaptureQueryStats();
      start_time_ = std::chrono::steady_clock::now();
    }
  }

  StatsScope(const StatsScope&) = delete;
  StatsScope& operator=(const StatsScope&) = delete;

  ~StatsScope() {
    if (outermost_) {
      QueryStats delta =
          MetricsRegistry::Default().CaptureQueryStats() - start_;
      delta.engine_queries = 1;
      MetricAdd(CounterId::kEngineQueries);
      MetricRecord(
          HistogramId::kEngineQueryMicros,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start_time_)
                  .count()));
      MutexLock lock(engine_->stats_mu_);
      engine_->last_query_stats_ = delta;
      engine_->cum_stats_ += delta;
    }
    engine_->stats_depth_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  const WhyNotEngine* engine_;
  bool outermost_ = false;
  QueryStats start_;
  std::chrono::steady_clock::time_point start_time_;
};

// ---------------------------------------------------------------------------
// EngineSnapshot: thin const delegation onto the pinned core.
// ---------------------------------------------------------------------------

const Dataset& EngineSnapshot::products() const { return *core_->products; }
const Dataset& EngineSnapshot::customers() const {
  return core_->customer_dataset();
}
bool EngineSnapshot::shared_relation() const { return core_->shared_relation; }
const CostModel& EngineSnapshot::cost_model() const {
  return core_->cost_model;
}
const RStarTree& EngineSnapshot::product_tree() const { return *core_->tree; }
const Rectangle& EngineSnapshot::universe() const { return core_->universe; }
bool EngineSnapshot::HasApproxDsls() const { return core_->HasApproxDsls(); }
size_t EngineSnapshot::approx_k() const { return core_->approx_k; }

bool EngineSnapshot::IsLiveProduct(size_t id) const {
  if (id >= core_->products->points.size()) return false;
  return id >= core_->removed.size() || !core_->removed[id];
}

std::vector<size_t> EngineSnapshot::ReverseSkyline(const Point& q) const {
  return core_->ReverseSkyline(q);
}
bool EngineSnapshot::IsReverseSkylineMember(size_t c, const Point& q) const {
  return core_->IsReverseSkylineMember(c, q);
}
std::vector<size_t> EngineSnapshot::CustomersInRange(
    const Rectangle& window) const {
  return core_->CustomersInRange(window);
}
WhyNotExplanation EngineSnapshot::Explain(size_t c, const Point& q) const {
  return core_->Explain(c, q);
}
MwpResult EngineSnapshot::ModifyWhyNot(size_t c, const Point& q,
                                       Semantics semantics) const {
  return core_->ModifyWhyNot(c, q, semantics);
}
MqpResult EngineSnapshot::ModifyQuery(size_t c, const Point& q,
                                      Semantics semantics) const {
  return core_->ModifyQuery(c, q, semantics);
}
std::shared_ptr<const SafeRegionResult> EngineSnapshot::SafeRegion(
    const Point& q) const {
  return core_->SafeRegion(q);
}
std::shared_ptr<const SafeRegionResult> EngineSnapshot::ApproxSafeRegion(
    const Point& q) const {
  return core_->ApproxSafeRegion(q);
}
SafeRegionResult EngineSnapshot::ConstrainedSafeRegion(
    const Point& q, const Rectangle& limits) const {
  return core_->ConstrainedSafeRegion(q, limits);
}
MwqResult EngineSnapshot::ModifyBoth(size_t c, const Point& q,
                                     Semantics semantics) const {
  return core_->ModifyBoth(c, q, semantics);
}
MwqResult EngineSnapshot::ModifyBothApprox(size_t c, const Point& q,
                                           Semantics semantics) const {
  return core_->ModifyBothApprox(c, q, semantics);
}
MwqResult EngineSnapshot::ModifyBothConstrained(size_t c, const Point& q,
                                                const Rectangle& limits,
                                                Semantics semantics) const {
  return core_->ModifyBothConstrained(c, q, limits, semantics);
}
std::vector<size_t> EngineSnapshot::LostCustomers(const Point& q,
                                                  const Point& q_star) const {
  return core_->LostCustomers(q, q_star);
}
std::vector<MwqResult> EngineSnapshot::ModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  return core_->ModifyBothBatch(whos, q, use_approx, semantics);
}
double EngineSnapshot::MqpEvaluationCost(const Point& q,
                                         const Point& q_star) const {
  return core_->MqpEvaluationCost(q, q_star);
}
std::optional<Point> EngineSnapshot::NudgeToStrictMember(
    const Point& c_star, const Point& q, size_t customer_index) const {
  return core_->NudgeToStrictMember(c_star, q, customer_index);
}
bool EngineSnapshot::ProbeWindowEmpty(
    const Point& c, const Point& q,
    std::optional<RStarTree::Id> exclude) const {
  return WindowEmpty(*core_->packed_tree, c, q, exclude);
}
std::vector<RStarTree::Id> EngineSnapshot::ProbeWindowFrontier(
    const Point& c, const Point& q, const Point& origin,
    std::optional<RStarTree::Id> exclude) const {
  return WindowSkyline(*core_->packed_tree, c, q, origin, exclude);
}
std::vector<RStarTree::Id> EngineSnapshot::ProbeDynamicSkyline(
    const Point& c, std::optional<RStarTree::Id> exclude) const {
  return BbsDynamicSkyline(*core_->packed_tree, c, exclude);
}
std::vector<RStarTree::Id> EngineSnapshot::ProbeGlobalSkylineCandidates(
    const Point& q, std::optional<RStarTree::Id> exclude) const {
  return GlobalSkylineCandidates(*core_->packed_tree, q, exclude);
}

Result<std::vector<size_t>> EngineSnapshot::TryReverseSkyline(
    const Point& q) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  return core_->ReverseSkyline(q);
}
Result<WhyNotExplanation> EngineSnapshot::TryExplain(size_t c,
                                                     const Point& q) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  return core_->Explain(c, q);
}
Result<MwpResult> EngineSnapshot::TryModifyWhyNot(size_t c, const Point& q,
                                                  Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  return core_->ModifyWhyNot(c, q, semantics);
}
Result<MqpResult> EngineSnapshot::TryModifyQuery(size_t c, const Point& q,
                                                 Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  return core_->ModifyQuery(c, q, semantics);
}
Result<std::shared_ptr<const SafeRegionResult>> EngineSnapshot::TrySafeRegion(
    const Point& q) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  return core_->SafeRegion(q);
}
Result<std::shared_ptr<const SafeRegionResult>>
EngineSnapshot::TryApproxSafeRegion(const Point& q) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateApproxStore());
  return core_->ApproxSafeRegion(q);
}
Result<MwqResult> EngineSnapshot::TryModifyBoth(size_t c, const Point& q,
                                                Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  return core_->ModifyBoth(c, q, semantics);
}
Result<MwqResult> EngineSnapshot::TryModifyBothApprox(
    size_t c, const Point& q, Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  WNRS_RETURN_IF_ERROR(core_->ValidateApproxStore());
  return core_->ModifyBothApprox(c, q, semantics);
}
Result<std::vector<MwqResult>> EngineSnapshot::TryModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  WNRS_RETURN_IF_ERROR(core_->ValidateQuery(q));
  for (size_t c : whos) {
    WNRS_RETURN_IF_ERROR(core_->ValidateCustomer(c));
  }
  if (use_approx) {
    WNRS_RETURN_IF_ERROR(core_->ValidateApproxStore());
  }
  return core_->ModifyBothBatch(whos, q, use_approx, semantics);
}

// ---------------------------------------------------------------------------
// WhyNotEngine: snapshot management + the stats-keeping serial facade.
// ---------------------------------------------------------------------------

WhyNotEngine::WhyNotEngine(Dataset products, Dataset customers,
                           WhyNotEngineOptions options)
    : pool_(std::make_shared<ThreadPool>(options.num_threads)),
      core_(std::make_shared<const internal::EngineCore>(
          std::move(products), std::move(customers), options, pool_)) {}

WhyNotEngine::WhyNotEngine(Dataset data, WhyNotEngineOptions options)
    : pool_(std::make_shared<ThreadPool>(options.num_threads)),
      core_(std::make_shared<const internal::EngineCore>(std::move(data),
                                                         options, pool_)) {}

WhyNotEngine::WhyNotEngine(RestoreBadge, std::shared_ptr<ThreadPool> pool,
                           std::shared_ptr<const internal::EngineCore> core)
    : pool_(std::move(pool)), core_(std::move(core)) {}

// ---------------------------------------------------------------------------
// Persistence: the engine bundle (DESIGN.md §13). data.bin holds the
// datasets/tombstones/universe; the dynamic trees become page files; the
// packed slab keeps its mmap-able image alongside.
// ---------------------------------------------------------------------------

Status WhyNotEngine::Save(const std::string& dir) const {
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  WNRS_RETURN_IF_ERROR(storage::EnsureDirectory(dir));
  const std::string base = dir + "/";

  storage::EngineBundleData data;
  data.shared_relation = cur->shared_relation;
  data.products = *cur->products;
  if (cur->customers != nullptr) {
    data.customers = *cur->customers;
    data.has_customers = true;
  }
  data.removed = cur->removed;
  data.universe = cur->universe;
  data.has_packed = true;
  data.has_packed_customers = cur->packed_customer_tree != nullptr;
  WNRS_RETURN_IF_ERROR(
      storage::SaveBundleData(data, base + storage::kBundleDataFile));

  WNRS_RETURN_IF_ERROR(
      storage::SavePagedTree(*cur->tree, base + storage::kBundleTreeFile));
  if (cur->customer_tree != nullptr) {
    WNRS_RETURN_IF_ERROR(storage::SavePagedTree(
        *cur->customer_tree, base + storage::kBundleCustomerTreeFile));
  }
  WNRS_RETURN_IF_ERROR(storage::SavePacked(
      *cur->packed_tree, base + storage::kBundlePackedFile));
  if (cur->packed_customer_tree != nullptr) {
    WNRS_RETURN_IF_ERROR(storage::SavePacked(
        *cur->packed_customer_tree,
        base + storage::kBundlePackedCustomerFile));
  }
  return Status::Ok();
}

namespace {

/// Opens the packed slab for one tree, or re-freezes it from the loaded
/// dynamic tree when the bundle has none, and proves slab/tree parity
/// either way — a slab from a different tree state must never serve.
Result<std::shared_ptr<const PackedRTree>> RestorePacked(
    const std::string& slab_path, bool slab_on_disk, const RStarTree& tree,
    const EngineStorageOptions& storage_options) {
  if (!slab_on_disk) {
    return std::shared_ptr<const PackedRTree>(
        std::make_shared<const PackedRTree>(PackedRTree::Freeze(tree)));
  }
  Result<PackedRTree> packed =
      storage_options.mmap_packed
          ? storage::OpenPackedMapped(slab_path,
                                      storage_options.verify_checksums)
          : storage::OpenPackedBuffered(slab_path,
                                        storage_options.verify_checksums);
  WNRS_RETURN_IF_ERROR(packed.status());
  WNRS_RETURN_IF_ERROR(
      ValidatePackedMatchesDynamic(packed.value(), tree));
  return std::shared_ptr<const PackedRTree>(
      std::make_shared<const PackedRTree>(std::move(packed).value()));
}

}  // namespace

Result<std::unique_ptr<WhyNotEngine>> WhyNotEngine::Open(
    const std::string& dir, WhyNotEngineOptions options) {
  const std::string base = dir + "/";
  Result<storage::EngineBundleData> data_r =
      storage::LoadBundleData(base + storage::kBundleDataFile);
  WNRS_RETURN_IF_ERROR(data_r.status());
  storage::EngineBundleData& data = data_r.value();

  internal::RestoredEngineParts parts;
  parts.options = options;
  parts.shared_relation = data.shared_relation;
  parts.removed = std::move(data.removed);
  parts.universe = data.universe;
  const size_t dims = data.products.dims;
  size_t live = data.products.points.size();
  for (bool r : parts.removed) {
    if (r) --live;
  }
  if (live == 0) {
    return Status::InvalidArgument(
        "[tree-shape] bundle has no live products: " + dir);
  }
  parts.products =
      std::make_shared<const Dataset>(std::move(data.products));
  if (data.has_customers) {
    if (data.customers.dims != dims || data.customers.points.empty()) {
      return Status::InvalidArgument(
          "[dimension] bundle customer dataset inconsistent with "
          "products: " +
          dir);
    }
    parts.customers =
        std::make_shared<const Dataset>(std::move(data.customers));
  } else if (!data.shared_relation) {
    return Status::InvalidArgument(
        "[bundle-flags] bichromatic bundle without a customer dataset: " +
        dir);
  }
  if (parts.universe.dims() != dims) {
    return Status::InvalidArgument(
        "[dimension] bundle universe dimensionality mismatch: " + dir);
  }

  Result<RStarTree> tree_r = storage::LoadPagedTree(
      base + storage::kBundleTreeFile, options.storage.buffer_pool_pages);
  WNRS_RETURN_IF_ERROR(tree_r.status());
  if (tree_r.value().dims() != dims || tree_r.value().size() != live) {
    return Status::InvalidArgument(
        StrFormat("[tree-shape] bundle product tree holds %zu entries of "
                  "%zu dims; bundle data declares %zu live products of %zu "
                  "dims",
                  tree_r.value().size(), tree_r.value().dims(), live, dims));
  }
  parts.tree =
      std::make_shared<const RStarTree>(std::move(tree_r).value());

  if (parts.customers != nullptr) {
    Result<RStarTree> ctree_r =
        storage::LoadPagedTree(base + storage::kBundleCustomerTreeFile,
                               options.storage.buffer_pool_pages);
    WNRS_RETURN_IF_ERROR(ctree_r.status());
    if (ctree_r.value().dims() != dims ||
        ctree_r.value().size() != parts.customers->points.size()) {
      return Status::InvalidArgument(
          "[tree-shape] bundle customer tree inconsistent with the "
          "customer dataset: " +
          dir);
    }
    parts.customer_tree =
        std::make_shared<const RStarTree>(std::move(ctree_r).value());
  }

  Result<std::shared_ptr<const PackedRTree>> packed =
      RestorePacked(base + storage::kBundlePackedFile, data.has_packed,
                    *parts.tree, options.storage);
  WNRS_RETURN_IF_ERROR(packed.status());
  parts.packed_tree = std::move(packed).value();
  if (parts.customer_tree != nullptr) {
    Result<std::shared_ptr<const PackedRTree>> packed_c = RestorePacked(
        base + storage::kBundlePackedCustomerFile, data.has_packed_customers,
        *parts.customer_tree, options.storage);
    WNRS_RETURN_IF_ERROR(packed_c.status());
    parts.packed_customer_tree = std::move(packed_c).value();
  }

  auto pool = std::make_shared<ThreadPool>(options.num_threads);
  parts.pool = pool;
  auto core =
      std::make_shared<const internal::EngineCore>(std::move(parts));
  return std::unique_ptr<WhyNotEngine>(std::make_unique<WhyNotEngine>(
      RestoreBadge{}, std::move(pool), std::move(core)));
}

std::shared_ptr<const internal::EngineCore> WhyNotEngine::CurrentCore() const {
  ReaderLock lock(core_mu_);
  return core_;
}

void WhyNotEngine::PublishCore(
    std::shared_ptr<const internal::EngineCore> core) {
  MutexLock lock(core_mu_);
  core_ = std::move(core);
}

const Dataset& WhyNotEngine::products() const {
  return *CurrentCore()->products;
}
const Dataset& WhyNotEngine::customers() const {
  return CurrentCore()->customer_dataset();
}
bool WhyNotEngine::shared_relation() const {
  return CurrentCore()->shared_relation;
}
const CostModel& WhyNotEngine::cost_model() const {
  return CurrentCore()->cost_model;
}
const RStarTree& WhyNotEngine::product_tree() const {
  return *CurrentCore()->tree;
}
const Rectangle& WhyNotEngine::universe() const {
  return CurrentCore()->universe;
}
bool WhyNotEngine::HasApproxDsls() const {
  return CurrentCore()->HasApproxDsls();
}
size_t WhyNotEngine::approx_k() const { return CurrentCore()->approx_k; }

std::vector<size_t> WhyNotEngine::ReverseSkyline(const Point& q) const {
  StatsScope scope(this);
  return CurrentCore()->ReverseSkyline(q);
}

bool WhyNotEngine::IsReverseSkylineMember(size_t c, const Point& q) const {
  return CurrentCore()->IsReverseSkylineMember(c, q);
}

std::vector<size_t> WhyNotEngine::CustomersInRange(
    const Rectangle& window) const {
  return CurrentCore()->CustomersInRange(window);
}

WhyNotExplanation WhyNotEngine::Explain(size_t c, const Point& q) const {
  StatsScope scope(this);
  return CurrentCore()->Explain(c, q);
}

MwpResult WhyNotEngine::ModifyWhyNot(size_t c, const Point& q,
                                     Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyWhyNot(c, q, semantics);
}

MqpResult WhyNotEngine::ModifyQuery(size_t c, const Point& q,
                                    Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyQuery(c, q, semantics);
}

const SafeRegionResult& WhyNotEngine::SafeRegion(const Point& q) const {
  StatsScope scope(this);
  tls_sr_anchor = CurrentCore()->SafeRegion(q);
  return *tls_sr_anchor;
}

const SafeRegionResult& WhyNotEngine::ApproxSafeRegion(const Point& q) const {
  StatsScope scope(this);
  tls_approx_sr_anchor = CurrentCore()->ApproxSafeRegion(q);
  return *tls_approx_sr_anchor;
}

MwqResult WhyNotEngine::ModifyBoth(size_t c, const Point& q,
                                   Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyBoth(c, q, semantics);
}

MwqResult WhyNotEngine::ModifyBothApprox(size_t c, const Point& q,
                                         Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyBothApprox(c, q, semantics);
}

SafeRegionResult WhyNotEngine::ConstrainedSafeRegion(
    const Point& q, const Rectangle& limits) const {
  StatsScope scope(this);
  return CurrentCore()->ConstrainedSafeRegion(q, limits);
}

MwqResult WhyNotEngine::ModifyBothConstrained(size_t c, const Point& q,
                                              const Rectangle& limits,
                                              Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyBothConstrained(c, q, limits, semantics);
}

std::vector<size_t> WhyNotEngine::LostCustomers(const Point& q,
                                                const Point& q_star) const {
  StatsScope scope(this);
  return CurrentCore()->LostCustomers(q, q_star);
}

std::vector<MwqResult> WhyNotEngine::ModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  StatsScope scope(this);
  return CurrentCore()->ModifyBothBatch(whos, q, use_approx, semantics);
}

Result<std::vector<size_t>> WhyNotEngine::TryReverseSkyline(
    const Point& q) const {
  StatsScope scope(this);
  return Snapshot().TryReverseSkyline(q);
}
Result<WhyNotExplanation> WhyNotEngine::TryExplain(size_t c,
                                                   const Point& q) const {
  StatsScope scope(this);
  return Snapshot().TryExplain(c, q);
}
Result<MwpResult> WhyNotEngine::TryModifyWhyNot(size_t c, const Point& q,
                                                Semantics semantics) const {
  StatsScope scope(this);
  return Snapshot().TryModifyWhyNot(c, q, semantics);
}
Result<MqpResult> WhyNotEngine::TryModifyQuery(size_t c, const Point& q,
                                               Semantics semantics) const {
  StatsScope scope(this);
  return Snapshot().TryModifyQuery(c, q, semantics);
}
Result<std::shared_ptr<const SafeRegionResult>> WhyNotEngine::TrySafeRegion(
    const Point& q) const {
  StatsScope scope(this);
  return Snapshot().TrySafeRegion(q);
}
Result<std::shared_ptr<const SafeRegionResult>>
WhyNotEngine::TryApproxSafeRegion(const Point& q) const {
  StatsScope scope(this);
  return Snapshot().TryApproxSafeRegion(q);
}
Result<MwqResult> WhyNotEngine::TryModifyBoth(size_t c, const Point& q,
                                              Semantics semantics) const {
  StatsScope scope(this);
  return Snapshot().TryModifyBoth(c, q, semantics);
}
Result<MwqResult> WhyNotEngine::TryModifyBothApprox(size_t c, const Point& q,
                                                    Semantics semantics) const {
  StatsScope scope(this);
  return Snapshot().TryModifyBothApprox(c, q, semantics);
}
Result<std::vector<MwqResult>> WhyNotEngine::TryModifyBothBatch(
    const std::vector<size_t>& whos, const Point& q, bool use_approx,
    Semantics semantics) const {
  StatsScope scope(this);
  return Snapshot().TryModifyBothBatch(whos, q, use_approx, semantics);
}

void WhyNotEngine::PrecomputeApproxDsls(size_t k) {
  StatsScope scope(this);
  WNRS_CHECK(k >= 2);
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  const Dataset& ds = cur->customer_dataset();
  auto store =
      std::make_shared<std::vector<std::vector<Point>>>(ds.points.size());
  // One dynamic skyline per customer, each writing its own slot: the
  // embarrassingly parallel offline pass of Section VI-B.1.
  cur->pool->ParallelFor(0, ds.points.size(), [&](size_t c) {
    const std::vector<RStarTree::Id> dsl = BbsDynamicSkyline(
        *cur->packed_tree, ds.points[c], cur->ExcludeFor(c));
    std::vector<Point> transformed;
    transformed.reserve(dsl.size());
    for (RStarTree::Id id : dsl) {
      transformed.push_back(ToDistanceSpace(
          cur->products->points[static_cast<size_t>(id)], ds.points[c]));
    }
    (*store)[c] =
        ApproximateSkyline(std::move(transformed), k, cur->options.sort_dim);
  });
  auto next = std::make_shared<internal::EngineCore>(*cur);
  next->approx_dsls = std::move(store);
  next->approx_k = k;
  PublishCore(std::move(next));
}

Status WhyNotEngine::SaveApproxDsls(const std::string& path) const {
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  if (!cur->HasApproxDsls()) {
    return Status::FailedPrecondition("no approximated DSL store to save");
  }
  const size_t dims = cur->products->dims;
  const std::vector<std::vector<Point>>& dsls = *cur->approx_dsls;
  std::ostringstream out;
  out << "wnrs-approx-dsl 1\n"
      << cur->approx_k << ' ' << dims << ' ' << dsls.size() << '\n';
  for (const std::vector<Point>& dsl : dsls) {
    out << dsl.size();
    for (const Point& p : dsl) {
      for (size_t i = 0; i < dims; ++i) {
        out << ' ' << StrFormat("%.17g", p[i]);
      }
    }
    out << '\n';
  }
  return storage::WriteStringToFile(path, out.str());
}

Status WhyNotEngine::LoadApproxDsls(const std::string& path) {
  std::string contents;
  WNRS_RETURN_IF_ERROR(storage::ReadFileToString(path, &contents));
  std::istringstream in(std::move(contents));
  std::string magic;
  int version = 0;
  size_t k = 0;
  size_t dims = 0;
  size_t count = 0;
  in >> magic >> version >> k >> dims >> count;
  if (!in.good() || magic != "wnrs-approx-dsl" || version != 1) {
    return Status::InvalidArgument("not a wnrs approx-DSL store: " + path);
  }
  // PrecomputeApproxDsls enforces k >= 2 (the sampling rule needs a first
  // and a last point); a loaded store must satisfy the same invariant.
  if (k < 2) {
    return Status::InvalidArgument(
        StrFormat("approx-DSL store has k=%zu; k >= 2 required", k));
  }
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  if (dims != cur->products->dims) {
    return Status::InvalidArgument("store dimensionality mismatch");
  }
  if (count != cur->customer_dataset().points.size()) {
    return Status::InvalidArgument(
        StrFormat("store has %zu customers, engine has %zu", count,
                  cur->customer_dataset().points.size()));
  }
  auto loaded = std::make_shared<std::vector<std::vector<Point>>>(count);
  std::string token;
  for (size_t c = 0; c < count; ++c) {
    size_t entries = 0;
    if (!(in >> entries)) {
      return Status::InvalidArgument("truncated approx-DSL store: " + path);
    }
    (*loaded)[c].reserve(entries);
    for (size_t e = 0; e < entries; ++e) {
      Point p(dims);
      for (size_t i = 0; i < dims; ++i) {
        // Parse via strtod (istream extraction rejects "nan"/"inf"
        // outright, which would misreport them as truncation).
        if (!(in >> token)) {
          return Status::InvalidArgument("truncated approx-DSL store: " +
                                         path);
        }
        char* end_ptr = nullptr;
        const double v = std::strtod(token.c_str(), &end_ptr);
        if (end_ptr == token.c_str() || *end_ptr != '\0') {
          return Status::InvalidArgument("malformed coordinate '" + token +
                                         "' in approx-DSL store: " + path);
        }
        if (!std::isfinite(v)) {
          return Status::InvalidArgument(
              "non-finite coordinate in approx-DSL store: " + path);
        }
        p[i] = v;
      }
      (*loaded)[c].push_back(std::move(p));
    }
  }
  auto next = std::make_shared<internal::EngineCore>(*cur);
  next->approx_dsls = std::move(loaded);
  next->approx_k = k;
  PublishCore(std::move(next));
  return Status::Ok();
}

size_t WhyNotEngine::AddProduct(const Point& p) {
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  WNRS_CHECK(p.dims() == cur->products->dims);
  auto new_products = std::make_shared<Dataset>(*cur->products);
  const size_t id = new_products->points.size();
  new_products->points.push_back(p);
  auto new_tree = std::make_shared<RStarTree>(cur->tree->Clone());
  new_tree->Insert(p, static_cast<RStarTree::Id>(id));
  auto next = std::make_shared<internal::EngineCore>(*cur);
  next->products = std::move(new_products);
  next->tree = std::move(new_tree);
  next->packed_tree =
      std::make_shared<const PackedRTree>(PackedRTree::Freeze(*next->tree));
  next->removed.resize(id + 1, false);
  // Keep the universe a superset of all live points; the cost model's
  // normalization follows it when the new tuple falls outside.
  if (!next->universe.Contains(p)) {
    next->universe = next->universe.BoundingUnion(Rectangle::FromPoint(p));
    next->cost_model = MakeCostModel(next->universe, next->options);
  }
  // The approximated-DSL store is a function of the product set; a stale
  // store could silently lose safety, so it is dropped with the snapshot.
  next->approx_dsls.reset();
  next->approx_k = 0;
  next->ParanoidCheckIndex();
  PublishCore(std::move(next));
  MetricSetGauge(GaugeId::kRslCacheSize, 0);
  return id;
}

Result<size_t> WhyNotEngine::TryAddProduct(const Point& p) {
  {
    std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
    WNRS_RETURN_IF_ERROR(cur->ValidatePoint(p, "product point"));
  }
  return AddProduct(p);
}

bool WhyNotEngine::RemoveProduct(size_t id) {
  return TryRemoveProduct(id).ok();
}

Status WhyNotEngine::TryRemoveProduct(size_t id) {
  MutexLock mlock(mutation_mu_);
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  if (id >= cur->products->points.size()) {
    return Status::NotFound(StrFormat("no product with id %zu", id));
  }
  if (id < cur->removed.size() && cur->removed[id]) {
    return Status::NotFound(StrFormat("product %zu was already removed", id));
  }
  auto new_tree = std::make_shared<RStarTree>(cur->tree->Clone());
  if (!new_tree->Delete(Rectangle::FromPoint(cur->products->points[id]),
                        static_cast<RStarTree::Id>(id))) {
    return Status::NotFound(StrFormat("product %zu not present in index", id));
  }
  auto next = std::make_shared<internal::EngineCore>(*cur);
  next->tree = std::move(new_tree);
  next->packed_tree =
      std::make_shared<const PackedRTree>(PackedRTree::Freeze(*next->tree));
  next->removed.resize(cur->products->points.size(), false);
  next->removed[id] = true;
  next->approx_dsls.reset();
  next->approx_k = 0;
  next->ParanoidCheckIndex();
  PublishCore(std::move(next));
  MetricSetGauge(GaugeId::kRslCacheSize, 0);
  return Status::Ok();
}

bool WhyNotEngine::IsLiveProduct(size_t id) const {
  std::shared_ptr<const internal::EngineCore> cur = CurrentCore();
  if (id >= cur->products->points.size()) return false;
  return id >= cur->removed.size() || !cur->removed[id];
}

double WhyNotEngine::MqpEvaluationCost(const Point& q,
                                       const Point& q_star) const {
  StatsScope scope(this);
  return CurrentCore()->MqpEvaluationCost(q, q_star);
}

std::optional<Point> WhyNotEngine::NudgeToStrictMember(
    const Point& c_star, const Point& q, size_t customer_index) const {
  return CurrentCore()->NudgeToStrictMember(c_star, q, customer_index);
}

QueryStats WhyNotEngine::stats() const {
  MutexLock lock(stats_mu_);
  return cum_stats_;
}

QueryStats WhyNotEngine::last_query_stats() const {
  MutexLock lock(stats_mu_);
  return last_query_stats_;
}

void WhyNotEngine::ResetStats() const {
  MutexLock lock(stats_mu_);
  last_query_stats_ = QueryStats();
  cum_stats_ = QueryStats();
}

}  // namespace wnrs
