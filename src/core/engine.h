#ifndef WNRS_CORE_ENGINE_H_
#define WNRS_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cost.h"
#include "core/explain.h"
#include "core/mqp.h"
#include "core/mwp.h"
#include "core/mwq.h"
#include "core/safe_region.h"
#include "data/dataset.h"
#include "index/rtree.h"

namespace wnrs {

/// How WhyNotEngine::Open reads a saved bundle (see DESIGN.md §13).
struct EngineStorageOptions {
  /// Buffer-pool frames in front of the page files holding the dynamic
  /// R*-trees; hits and misses surface as storage.cache_hits /
  /// storage.cache_misses.
  size_t buffer_pool_pages = 256;
  /// mmap the packed slab (zero-copy cold start) instead of reading it
  /// into owned memory. Query-identical either way.
  bool mmap_packed = true;
  /// Verify the per-section CRC-32s of the packed slab on open (one
  /// sequential sweep); the structural validator runs regardless.
  bool verify_checksums = true;
};

/// Engine configuration.
struct WhyNotEngineOptions {
  /// R*-tree knobs (paper default: 1536-byte pages).
  RTreeOptions rtree;
  /// Sort dimension of the staircase constructions.
  size_t sort_dim = 0;
  /// Weight vectors alpha (query) / beta (why-not). Empty = equal weights.
  std::vector<double> alpha;
  std::vector<double> beta;
  /// Cap on safe-region rectangles (see SafeRegionOptions).
  size_t max_safe_region_rectangles = 8192;
  /// Nudge applied under Semantics::kStrict to turn closed-boundary
  /// answers into strict reverse-skyline members, as a fraction of each
  /// dimension's data range.
  double epsilon_fraction = 1e-9;
  /// Thread count for the engine's parallel loops (batch why-not
  /// answering, approximated-DSL precomputation, reverse-skyline
  /// verification). 0 = hardware concurrency; 1 = bit-exact serial
  /// execution with no worker threads. Every thread count produces
  /// identical results; only the scheduling differs.
  size_t num_threads = 0;
  /// Re-verify every answer against ground truth before returning it:
  /// tree structure after each mutation (index/validate.h), safe-region
  /// soundness by sampled window probes, and MWP/MQP/MWQ membership of
  /// every returned candidate (core/validate.h). A violation aborts via
  /// WNRS_CHECK with the violated invariant named — fail closed, never
  /// serve a wrong answer. Expensive (each answer is re-proved with
  /// independent probes over the dynamic tree, while the answers
  /// themselves come from the packed tree); meant for tests, fuzzing and
  /// canary replicas, not the serving fleet.
  bool paranoid_checks = false;
  /// Persistence knobs used by WhyNotEngine::Open.
  EngineStorageOptions storage;
};

/// Answer semantics for the modification algorithms (MWP/MQP/MWQ).
///
/// The paper's algorithms place answers on the *closed boundary* of the
/// feasible region ("pay at least 3K more"); a boundary answer ties with
/// a culprit product and is therefore not a strict reverse-skyline
/// member. kStrict post-processes every candidate with the epsilon nudge
/// (WhyNotEngineOptions::epsilon_fraction) toward the interior and
/// recomputes its cost, so the returned locations pass a real strict
/// membership probe. kBoundary (the default) returns the paper's
/// boundary answers unchanged — the historical behavior, previously only
/// reachable by manually chaining NudgeToStrictMember (now deprecated as
/// a public workflow; use this parameter instead).
enum class Semantics { kBoundary, kStrict };

namespace internal {
/// Immutable engine state (datasets, R*-tree, cost model, approx-DSL
/// store) plus its concurrency-safe derived caches. Defined in engine.cc.
struct EngineCore;
}  // namespace internal

/// An immutable, concurrency-safe view of one engine state — the
/// "session" handle of the serving API. Snapshots are cheap to copy
/// (one shared_ptr), safe to use from any number of threads at once, and
/// unaffected by later engine mutations: a snapshot taken before
/// AddProduct keeps answering against the old market until it is
/// dropped. All query results are bit-identical to the serial engine
/// facade.
///
/// Obtain one with WhyNotEngine::Snapshot(); it may outlive the engine.
class EngineSnapshot {
 public:
  EngineSnapshot(const EngineSnapshot&) = default;
  EngineSnapshot& operator=(const EngineSnapshot&) = default;
  EngineSnapshot(EngineSnapshot&&) noexcept = default;
  EngineSnapshot& operator=(EngineSnapshot&&) noexcept = default;

  const Dataset& products() const;
  const Dataset& customers() const;
  bool shared_relation() const;
  const CostModel& cost_model() const;
  const RStarTree& product_tree() const;
  const Rectangle& universe() const;
  bool HasApproxDsls() const;
  size_t approx_k() const;
  bool IsLiveProduct(size_t id) const;

  /// RSL(q) as customer indices (ascending); memoized per query point.
  std::vector<size_t> ReverseSkyline(const Point& q) const;
  bool IsReverseSkylineMember(size_t c, const Point& q) const;
  std::vector<size_t> CustomersInRange(const Rectangle& window) const;
  WhyNotExplanation Explain(size_t c, const Point& q) const;
  MwpResult ModifyWhyNot(size_t c, const Point& q,
                         Semantics semantics = Semantics::kBoundary) const;
  MqpResult ModifyQuery(size_t c, const Point& q,
                        Semantics semantics = Semantics::kBoundary) const;

  /// SR(q), cached per query point within this snapshot's generation.
  /// The shared_ptr keeps the result alive independently of cache
  /// eviction, so it is safe to hold across further queries.
  std::shared_ptr<const SafeRegionResult> SafeRegion(const Point& q) const;
  std::shared_ptr<const SafeRegionResult> ApproxSafeRegion(
      const Point& q) const;
  SafeRegionResult ConstrainedSafeRegion(const Point& q,
                                         const Rectangle& limits) const;

  MwqResult ModifyBoth(size_t c, const Point& q,
                       Semantics semantics = Semantics::kBoundary) const;
  MwqResult ModifyBothApprox(size_t c, const Point& q,
                             Semantics semantics = Semantics::kBoundary) const;
  MwqResult ModifyBothConstrained(
      size_t c, const Point& q, const Rectangle& limits,
      Semantics semantics = Semantics::kBoundary) const;
  std::vector<size_t> LostCustomers(const Point& q, const Point& q_star) const;
  std::vector<MwqResult> ModifyBothBatch(
      const std::vector<size_t>& whos, const Point& q, bool use_approx = false,
      Semantics semantics = Semantics::kBoundary) const;
  double MqpEvaluationCost(const Point& q, const Point& q_star) const;
  std::optional<Point> NudgeToStrictMember(const Point& c_star, const Point& q,
                                           size_t customer_index) const;

  /// Per-layer probes: the index primitives the query algorithms are
  /// built from, exposed so each layer can be timed and tested on its
  /// own. Each runs on the packed tree, like every full-query call site,
  /// and returns a canonical ordering (ascending ids for window
  /// frontiers). `exclude` is the raw tree id
  /// to skip (a customer's own tuple under a shared relation).
  bool ProbeWindowEmpty(const Point& c, const Point& q,
                        std::optional<RStarTree::Id> exclude) const;
  std::vector<RStarTree::Id> ProbeWindowFrontier(
      const Point& c, const Point& q, const Point& origin,
      std::optional<RStarTree::Id> exclude) const;
  std::vector<RStarTree::Id> ProbeDynamicSkyline(
      const Point& c, std::optional<RStarTree::Id> exclude) const;
  /// BBRS candidate generation only — the global (quadrant-aware) skyline
  /// of this snapshot's products w.r.t. `q`, without the per-candidate
  /// window verification.
  std::vector<RStarTree::Id> ProbeGlobalSkylineCandidates(
      const Point& q, std::optional<RStarTree::Id> exclude) const;

  /// Validating (non-aborting) variants: every bad input that would trip
  /// a WNRS_CHECK in the methods above — out-of-range or removed
  /// customer index, dimension mismatch, non-finite coordinates, missing
  /// approx-DSL store — comes back as a non-OK Status instead, so a
  /// serving layer never crashes the process on a bad request.
  Result<std::vector<size_t>> TryReverseSkyline(const Point& q) const;
  Result<WhyNotExplanation> TryExplain(size_t c, const Point& q) const;
  Result<MwpResult> TryModifyWhyNot(
      size_t c, const Point& q,
      Semantics semantics = Semantics::kBoundary) const;
  Result<MqpResult> TryModifyQuery(
      size_t c, const Point& q,
      Semantics semantics = Semantics::kBoundary) const;
  Result<std::shared_ptr<const SafeRegionResult>> TrySafeRegion(
      const Point& q) const;
  Result<std::shared_ptr<const SafeRegionResult>> TryApproxSafeRegion(
      const Point& q) const;
  Result<MwqResult> TryModifyBoth(
      size_t c, const Point& q,
      Semantics semantics = Semantics::kBoundary) const;
  Result<MwqResult> TryModifyBothApprox(
      size_t c, const Point& q,
      Semantics semantics = Semantics::kBoundary) const;
  Result<std::vector<MwqResult>> TryModifyBothBatch(
      const std::vector<size_t>& whos, const Point& q, bool use_approx = false,
      Semantics semantics = Semantics::kBoundary) const;

 private:
  friend class WhyNotEngine;
  explicit EngineSnapshot(std::shared_ptr<const internal::EngineCore> core)
      : core_(std::move(core)) {}

  std::shared_ptr<const internal::EngineCore> core_;
};

/// Facade over the full why-not pipeline of the paper: reverse skylines
/// (BBRS), explanations, MWP (Alg. 1), MQP (Alg. 2), exact and
/// approximated safe regions (Alg. 3 + Section VI-B.1), and MWQ (Alg. 4).
///
/// The engine owns the product/customer datasets and their R*-tree, the
/// min-max cost model, the per-query safe-region and reverse-skyline
/// caches (the paper: "we do not need to recompute it to answer another
/// why-not question for the same query point"), and the optional offline
/// store of approximated dynamic skylines.
///
/// Every query kind reads a packed, arena-backed image of the R*-tree
/// (PackedRTree) frozen once per mutation at snapshot publish; its freeze
/// cost shows in the packed.freezes / packed.freeze_ns metrics. The
/// dynamic R*-tree takes the mutations, persistence and the
/// paranoid_checks validators.
///
/// Customers are addressed by index into customers().points; in the
/// shared-relation mode (one relation is both P and C, as in every
/// experiment of the paper) customer index == product id and a customer's
/// own tuple is excluded from its window queries.
///
/// Threading: the whole read path (ReverseSkyline, Explain, ModifyWhyNot,
/// ModifyQuery, SafeRegion, ModifyBoth*, ...) is safe for concurrent
/// external callers — the engine state is an immutable core published
/// through an atomic snapshot pointer and every derived cache is
/// internally synchronized. Mutations (AddProduct, RemoveProduct,
/// PrecomputeApproxDsls, LoadApproxDsls) are serialized against each
/// other and publish a *new* core copy-on-write, so in-flight readers
/// finish against the state they started with and never observe a
/// half-applied change. For mutation-concurrent reading, prefer holding
/// an explicit EngineSnapshot (Snapshot()): references returned by the
/// facade accessors (products(), SafeRegion(), ...) follow the core that
/// was current at call time and may dangle once a later mutation retires
/// it while no snapshot pins it. The engine additionally parallelizes its
/// own hot loops internally on a ThreadPool sized by
/// WhyNotEngineOptions::num_threads, with results identical to the
/// serial path.
class WhyNotEngine {
 public:
  /// The session handle of the concurrent API; see EngineSnapshot.
  using Session = EngineSnapshot;

  /// Bichromatic constructor: separate products and customers.
  WhyNotEngine(Dataset products, Dataset customers,
               WhyNotEngineOptions options = {});

  /// Shared-relation constructor: one dataset plays both roles.
  explicit WhyNotEngine(Dataset data, WhyNotEngineOptions options = {});

  /// Persists the full engine state to directory `dir` (created if
  /// missing): datasets, tombstones, and universe as a CRC'd binary blob;
  /// the dynamic R*-trees as page files (one node per CRC'd page); and
  /// the frozen packed slabs the read path serves from, in their
  /// mmap-able on-disk form. An engine reopened from the bundle answers
  /// every query bit-identically to this one. The approximated-DSL store
  /// is not part of the bundle — persist it with SaveApproxDsls alongside
  /// and reload it after Open.
  [[nodiscard]] Status Save(const std::string& dir) const;

  /// Reconstructs an engine from a Save directory. `options` plays the
  /// same role as in the constructors (and its `storage` member selects
  /// buffer-pool size and mmap-vs-buffered slab open); pass the options
  /// the original engine was built with to reproduce its answers
  /// bit-for-bit. The index structure itself comes from the bundle, not
  /// from a re-bulk-load — node layout, fan-out, and traversal order are
  /// the saved ones. A bundle without a packed slab (bundles written by
  /// older builds can lack one) gets its slab re-frozen from the loaded
  /// dynamic tree.
  [[nodiscard]] static Result<std::unique_ptr<WhyNotEngine>> Open(
      const std::string& dir, WhyNotEngineOptions options = {});

  WhyNotEngine(const WhyNotEngine&) = delete;
  WhyNotEngine& operator=(const WhyNotEngine&) = delete;

 private:
  /// Passkey for the restore constructor below: only Open (which can
  /// name the private type) can call it, but make_unique still can too.
  struct RestoreBadge {};

 public:
  /// Open's restore path: adopts an already-built core. Not callable
  /// outside the class (RestoreBadge is private); use Open.
  WhyNotEngine(RestoreBadge, std::shared_ptr<ThreadPool> pool,
               std::shared_ptr<const internal::EngineCore> core);

  /// The current immutable state as a shareable session object. O(1);
  /// safe to call concurrently with queries and mutations.
  EngineSnapshot Snapshot() const { return EngineSnapshot(CurrentCore()); }

  const Dataset& products() const;
  const Dataset& customers() const;
  bool shared_relation() const;
  const CostModel& cost_model() const;
  const RStarTree& product_tree() const;
  /// Universe rectangle: data bounds (products ∪ customers).
  const Rectangle& universe() const;

  /// RSL(q) as customer indices (ascending). Uses BBRS in shared-relation
  /// mode and the bichromatic pruned traversal otherwise.
  std::vector<size_t> ReverseSkyline(const Point& q) const;

  /// True iff customer `c` is in RSL(q) (single window probe).
  bool IsReverseSkylineMember(size_t c, const Point& q) const;

  /// Customers whose preference lies inside `window` (index range query;
  /// in shared-relation mode removed products are excluded). Ascending.
  std::vector<size_t> CustomersInRange(const Rectangle& window) const;

  /// Aspect 1: the culprit products and binding frontier.
  WhyNotExplanation Explain(size_t c, const Point& q) const;

  /// Algorithm 1. Boundary semantics by default; pass Semantics::kStrict
  /// for candidates nudged into strict reverse-skyline membership.
  MwpResult ModifyWhyNot(size_t c, const Point& q,
                         Semantics semantics = Semantics::kBoundary) const;

  /// Algorithm 2.
  MqpResult ModifyQuery(size_t c, const Point& q,
                        Semantics semantics = Semantics::kBoundary) const;

  /// Exact SR(q) (Algorithm 3); cached per query point, so repeated
  /// why-not questions against the same q reuse it. RSL(q) is computed
  /// internally. The reference stays valid until the calling thread's
  /// next SafeRegion/ApproxSafeRegion call or an engine mutation,
  /// whichever comes first; hold a Snapshot() and use its shared_ptr
  /// overload to pin results for longer.
  const SafeRegionResult& SafeRegion(const Point& q) const;

  /// Approximated SR(q) from the offline store; PrecomputeApproxDsls must
  /// have run. Also cached per query point (same lifetime contract).
  const SafeRegionResult& ApproxSafeRegion(const Point& q) const;

  /// Algorithm 4 with the exact safe region.
  MwqResult ModifyBoth(size_t c, const Point& q,
                       Semantics semantics = Semantics::kBoundary) const;

  /// Algorithm 4 with the approximated safe region (Approx-MWQ).
  MwqResult ModifyBothApprox(size_t c, const Point& q,
                             Semantics semantics = Semantics::kBoundary) const;

  /// The paper's Section V-B remark: the safe region "can be truncated
  /// ... to a smaller one by limiting certain product feature". Returns
  /// SR(q) ∩ limits — still safe (a subset loses no customers). q itself
  /// is re-added as a degenerate rectangle if the limits exclude it, so
  /// Algorithm 4 always has the zero-move fallback.
  SafeRegionResult ConstrainedSafeRegion(const Point& q,
                                         const Rectangle& limits) const;

  /// Algorithm 4 confined to `limits` (e.g., "the price may only change
  /// within [X, Y]").
  MwqResult ModifyBothConstrained(
      size_t c, const Point& q, const Rectangle& limits,
      Semantics semantics = Semantics::kBoundary) const;

  /// The flip side of the same remark: moving q outside SR(q) ("expanding"
  /// the region) costs existing customers. Returns the members of RSL(q)
  /// that would be lost if q moved to q_star (empty inside the safe
  /// region).
  std::vector<size_t> LostCustomers(const Point& q,
                                    const Point& q_star) const;

  /// Answers a batch of why-not questions against one query point,
  /// computing the (exact or approximated) safe region once — the reuse
  /// the paper highlights ("we do not need to recompute it to answer
  /// another why-not question for the same query point").
  std::vector<MwqResult> ModifyBothBatch(
      const std::vector<size_t>& whos, const Point& q, bool use_approx = false,
      Semantics semantics = Semantics::kBoundary) const;

  /// Validating variants of the read path; see EngineSnapshot. These
  /// replace the aborting forms for any caller that cannot trust its
  /// inputs (the serve layer uses them exclusively); the WNRS_CHECK-ing
  /// forms above remain for source compatibility but are deprecated for
  /// untrusted input.
  Result<std::vector<size_t>> TryReverseSkyline(const Point& q) const;
  Result<WhyNotExplanation> TryExplain(size_t c, const Point& q) const;
  Result<MwpResult> TryModifyWhyNot(
      size_t c, const Point& q,
      Semantics semantics = Semantics::kBoundary) const;
  Result<MqpResult> TryModifyQuery(
      size_t c, const Point& q,
      Semantics semantics = Semantics::kBoundary) const;
  Result<std::shared_ptr<const SafeRegionResult>> TrySafeRegion(
      const Point& q) const;
  Result<std::shared_ptr<const SafeRegionResult>> TryApproxSafeRegion(
      const Point& q) const;
  Result<MwqResult> TryModifyBoth(
      size_t c, const Point& q,
      Semantics semantics = Semantics::kBoundary) const;
  Result<MwqResult> TryModifyBothApprox(
      size_t c, const Point& q,
      Semantics semantics = Semantics::kBoundary) const;
  Result<std::vector<MwqResult>> TryModifyBothBatch(
      const std::vector<size_t>& whos, const Point& q, bool use_approx = false,
      Semantics semantics = Semantics::kBoundary) const;

  /// Offline pass of Section VI-B.1: computes and stores the approximated
  /// DSL (transformed space, sampled with parameter k) of every customer.
  /// A mutation: publishes a new snapshot with the store attached.
  void PrecomputeApproxDsls(size_t k);
  bool HasApproxDsls() const;
  size_t approx_k() const;

  /// Persists the precomputed store (the paper precomputes it "off-line");
  /// a saved store can be reloaded into an engine over the same datasets,
  /// skipping the PrecomputeApproxDsls pass on startup.
  Status SaveApproxDsls(const std::string& path) const;

  /// Loads a store written by SaveApproxDsls. Fails if the entry count
  /// does not match this engine's customer count.
  Status LoadApproxDsls(const std::string& path);

  /// Appends a product to the market (copy-on-write R*-tree insert and
  /// snapshot publish). Drops the safe-region caches and the
  /// approximated-DSL store with the old snapshot (both depend on the
  /// product set). Returns the new product's id. In shared-relation mode
  /// the tuple is simultaneously a new customer preference.
  /// [[nodiscard]]: dropping the id orphans the product — there is no
  /// other way to learn it for a later RemoveProduct.
  [[nodiscard]] size_t AddProduct(const Point& p);

  /// Validating variant: rejects dimension mismatches and non-finite
  /// coordinates instead of aborting.
  Result<size_t> TryAddProduct(const Point& p);

  /// Removes product `id` from the market (copy-on-write R*-tree delete;
  /// the slot in products() is tombstoned, so existing ids stay stable).
  /// Returns false if the id is unknown or already removed. In
  /// shared-relation mode the corresponding customer disappears with it.
  /// [[nodiscard]]: the bool is the only failure signal (false = no such
  /// live product, nothing was removed).
  [[nodiscard]] bool RemoveProduct(size_t id);

  /// Status-returning variant of RemoveProduct (NotFound on unknown or
  /// already-removed ids).
  Status TryRemoveProduct(size_t id);

  /// True iff the product id is live (not tombstoned).
  bool IsLiveProduct(size_t id) const;

  /// The paper's evaluation cost for MQP (Section VI-A): the alpha-cost of
  /// exiting the safe region plus the beta-cost of winning back every
  /// reverse-skyline customer lost by moving q to q*.
  double MqpEvaluationCost(const Point& q, const Point& q_star) const;

  /// Nudges a why-not answer off the closed boundary: moves `c_star`
  /// epsilon toward q per dimension and verifies strict membership.
  /// Returns the nudged point, or nullopt if even the nudged point is not
  /// a reverse-skyline member (possible when Algorithm 1's 2-D staircase
  /// heuristic is applied to adversarial inputs). Deprecated as a manual
  /// workflow: pass Semantics::kStrict to the Modify* methods instead.
  std::optional<Point> NudgeToStrictMember(const Point& c_star,
                                           const Point& q,
                                           size_t customer_index) const;

  /// Cumulative work counters over every outermost public call since
  /// construction (or ResetStats): R*-tree node reads, dominance tests,
  /// cache hits, and the rest of QueryStats. Derived from registry
  /// snapshots around each call; with several external threads querying
  /// concurrently the first caller in attributes the overlapping window,
  /// so treat concurrent-mode values as aggregate work, not an exact
  /// per-call ledger.
  QueryStats stats() const;

  /// Work done by the most recent outermost public call alone.
  QueryStats last_query_stats() const;

  /// Zeroes stats() and last_query_stats(). Does not touch the global
  /// MetricsRegistry.
  void ResetStats() const;

 private:
  /// RAII registry-snapshot delta around the outermost public call;
  /// nested or concurrently-overlapping calls see a non-zero depth and
  /// record nothing.
  class StatsScope;

  std::shared_ptr<const internal::EngineCore> CurrentCore() const;
  void PublishCore(std::shared_ptr<const internal::EngineCore> core);

  /// Pool behind all parallel loops; always non-null and shared into
  /// every core so snapshots can outlive the engine. With
  /// options_.num_threads == 1 it owns no workers and runs serially.
  std::shared_ptr<ThreadPool> pool_;

  /// The published snapshot; swapped wholesale by mutations. Exclusive
  /// for the COW republish, shared for the snapshot read path.
  mutable SharedMutex core_mu_;
  std::shared_ptr<const internal::EngineCore> core_ WNRS_GUARDED_BY(core_mu_);

  /// Serializes mutations (copy-on-write builders) against each other.
  /// Ordered strictly before core_mu_ (PublishCore runs with it held);
  /// never acquire mutation_mu_ with core_mu_ held.
  Mutex mutation_mu_;

  // Per-call statistics. `stats_depth_` is shared across threads so
  // overlapping calls don't double-count registry deltas.
  mutable std::atomic<int> stats_depth_{0};
  mutable Mutex stats_mu_;
  mutable QueryStats last_query_stats_ WNRS_GUARDED_BY(stats_mu_);
  mutable QueryStats cum_stats_ WNRS_GUARDED_BY(stats_mu_);
};

}  // namespace wnrs

#endif  // WNRS_CORE_ENGINE_H_
