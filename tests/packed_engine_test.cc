#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "core/strict.h"
#include "data/generators.h"
#include "geometry/transform.h"
#include "index/bulk_load.h"
#include "reverse_skyline/bbrs.h"
#include "reverse_skyline/window_query.h"
#include "skyline/approx.h"
#include "skyline/bbs.h"

namespace wnrs {
namespace {

// The engine serves every request kind from its packed tree. These tests
// recompute each answer with the RStarTree instantiation of the same
// algorithm over the snapshot's dynamic tree, and require bit-identical
// answers and identical node reads per call.

constexpr size_t kApproxK = 4;

WhyNotEngineOptions SerialOptions() {
  WhyNotEngineOptions options;
  options.num_threads = 1;
  return options;
}

/// A mix of query points the engines have not memoized yet: dataset
/// points nudged off-grid so every call is an RSL-cache miss.
std::vector<Point> FreshQueries(const Dataset& data, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> queries;
  queries.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    Point q = data.points[rng.NextUint64(data.size())];
    for (size_t i = 0; i < q.dims(); ++i) {
      q[i] += rng.NextDouble(-0.01, 0.01) * (q[i] + 1.0);
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Unwraps a Try* result, recording a failure (and returning a default
/// value) instead of aborting when the engine rejected the request.
template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) {
    ADD_FAILURE() << result.status().ToString();
    return T();
  }
  return std::move(result).value();
}

/// The work one call did, as a delta of the global metrics registry.
template <typename Fn>
QueryStats Measure(const Fn& fn) {
  const QueryStats before = MetricsRegistry::Default().CaptureQueryStats();
  fn();
  return MetricsRegistry::Default().CaptureQueryStats() - before;
}

/// The engine's call and the oracle's call did the same traversal work.
/// Every engine read is a packed read and no oracle read is; the packed
/// WindowSkyline counts window.dominance_tests as kernel scan width, the
/// one counter documented to differ, so it is not compared.
void ExpectSameWork(const QueryStats& engine, const QueryStats& oracle) {
  EXPECT_EQ(engine.rtree_node_reads, oracle.rtree_node_reads);
  EXPECT_EQ(engine.packed_node_reads, engine.rtree_node_reads);
  EXPECT_EQ(oracle.packed_node_reads, 0u);
  EXPECT_EQ(engine.window_probes, oracle.window_probes);
  EXPECT_EQ(engine.bbrs_heap_pops, oracle.bbrs_heap_pops);
  EXPECT_EQ(engine.bbrs_dominance_tests, oracle.bbrs_dominance_tests);
  EXPECT_EQ(engine.bbrs_pruned_entries, oracle.bbrs_pruned_entries);
}

/// Every request kind recomputed with the RStarTree instantiations of the
/// engine's algorithms over `snapshot`'s dynamic product tree, with the
/// engine's default options (sort dimension, epsilon, safe-region cap).
class DynamicOracle {
 public:
  /// `customer_tree` indexes the customers of a bichromatic engine; null
  /// under a shared relation.
  DynamicOracle(const EngineSnapshot& snapshot, const RStarTree* customer_tree)
      : snapshot_(snapshot),
        tree_(snapshot.product_tree()),
        customer_tree_(customer_tree) {}

  std::vector<size_t> Rsl(const Point& q) const {
    const std::vector<RStarTree::Id> ids =
        snapshot_.shared_relation()
            ? BbrsReverseSkyline(tree_, q)
            : BbrsReverseSkylineBichromatic(*customer_tree_, tree_, q);
    return std::vector<size_t>(ids.begin(), ids.end());
  }

  WhyNotExplanation Explain(size_t c, const Point& q) const {
    return ExplainWhyNot(tree_, products(), Customer(c), q, Exclude(c));
  }

  MwpResult Mwp(size_t c, const Point& q, Semantics semantics) const {
    MwpResult r = ModifyWhyNotPointFast(tree_, products(), Customer(c), q,
                                        snapshot_.cost_model(),
                                        options_.sort_dim, Exclude(c));
    if (semantics == Semantics::kStrict) {
      ApplyStrictMwpImpl(Customer(c), q, snapshot_.cost_model(),
                         snapshot_.universe(), options_.epsilon_fraction,
                         Probe(c), &r);
    }
    return r;
  }

  MqpResult Mqp(size_t c, const Point& q, Semantics semantics) const {
    MqpResult r = ModifyQueryPointFast(tree_, products(), Customer(c), q,
                                       snapshot_.cost_model(),
                                       options_.sort_dim, Exclude(c));
    if (semantics == Semantics::kStrict) {
      ApplyStrictMqpImpl(Customer(c), q, snapshot_.cost_model(),
                         snapshot_.universe(), options_.epsilon_fraction,
                         Probe(c), &r);
    }
    return r;
  }

  SafeRegionResult SafeRegion(const Point& q,
                              const std::vector<size_t>& rsl) const {
    return ComputeSafeRegion(tree_, products(), customers(), rsl, q,
                             snapshot_.universe(),
                             snapshot_.shared_relation(), SrOptions());
  }

  SafeRegionResult ApproxSafeRegion(
      const Point& q, const std::vector<size_t>& rsl,
      const std::vector<std::vector<Point>>& approx_dsls) const {
    return ComputeApproxSafeRegion(customers(), approx_dsls, rsl, q,
                                   snapshot_.universe(), SrOptions());
  }

  /// Algorithm 4 with the engine's member-keeping check: one window probe
  /// per RSL(q) member, stopping at the first lost member.
  MwqResult Mwq(size_t c, const Point& q, const RectRegion& safe_region,
                const std::vector<size_t>& rsl, Semantics semantics) const {
    const KeepsMembersFn keeps = [&](const Point& q_star) {
      for (size_t m : rsl) {
        if (!WindowEmpty(tree_, Customer(m), q_star, Exclude(m))) {
          return false;
        }
      }
      return true;
    };
    MwqResult r = ModifyQueryAndWhyNotPoint(
        tree_, products(), Customer(c), q, safe_region, snapshot_.universe(),
        snapshot_.cost_model(), options_.sort_dim, Exclude(c), keeps);
    if (semantics == Semantics::kStrict) {
      ApplyStrictMwqImpl(Customer(c), snapshot_.cost_model(),
                         snapshot_.universe(), options_.epsilon_fraction,
                         Probe(c), &r);
    }
    return r;
  }

  /// The store PrecomputeApproxDsls(k) builds: each customer's sampled
  /// transformed DSL.
  std::vector<std::vector<Point>> ApproxDsls(size_t k) const {
    std::vector<std::vector<Point>> store(customers().size());
    for (size_t c = 0; c < customers().size(); ++c) {
      std::vector<Point> dsl_t;
      for (RStarTree::Id id : BbsDynamicSkyline(tree_, Customer(c),
                                                Exclude(c))) {
        dsl_t.push_back(ToDistanceSpace(
            products()[static_cast<size_t>(id)], Customer(c)));
      }
      store[c] = ApproximateSkyline(std::move(dsl_t), k, options_.sort_dim);
    }
    return store;
  }

  std::vector<size_t> LostCustomers(const std::vector<size_t>& rsl,
                                    const Point& q_star) const {
    std::vector<size_t> lost;
    for (size_t m : rsl) {
      if (!WindowEmpty(tree_, Customer(m), q_star, Exclude(m))) {
        lost.push_back(m);
      }
    }
    return lost;
  }

 private:
  const std::vector<Point>& products() const {
    return snapshot_.products().points;
  }
  const std::vector<Point>& customers() const {
    return snapshot_.customers().points;
  }
  const Point& Customer(size_t c) const { return customers()[c]; }
  std::optional<RStarTree::Id> Exclude(size_t c) const {
    if (!snapshot_.shared_relation()) return std::nullopt;
    return static_cast<RStarTree::Id>(c);
  }
  StrictWindowEmptyFn Probe(size_t c) const {
    return [this, c](const Point& cc, const Point& qq) {
      return WindowEmpty(tree_, cc, qq, Exclude(c));
    };
  }
  SafeRegionOptions SrOptions() const {
    SafeRegionOptions sr;
    sr.sort_dim = options_.sort_dim;
    sr.max_rectangles = options_.max_safe_region_rectangles;
    return sr;
  }

  const EngineSnapshot& snapshot_;
  const RStarTree& tree_;
  const RStarTree* customer_tree_;
  const WhyNotEngineOptions options_;
};

void ExpectSameCandidates(const std::vector<Candidate>& a,
                          const std::vector<Candidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point, b[i].point) << "candidate " << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << "candidate " << i;
  }
}

void ExpectSame(const WhyNotExplanation& a, const WhyNotExplanation& b) {
  EXPECT_EQ(a.already_member, b.already_member);
  EXPECT_EQ(a.culprits, b.culprits);
  EXPECT_EQ(a.frontier, b.frontier);
}

void ExpectSame(const MwpResult& a, const MwpResult& b) {
  EXPECT_EQ(a.already_member, b.already_member);
  EXPECT_EQ(a.culprits, b.culprits);
  ExpectSameCandidates(a.candidates, b.candidates);
}

void ExpectSame(const MqpResult& a, const MqpResult& b) {
  EXPECT_EQ(a.already_member, b.already_member);
  EXPECT_EQ(a.culprits, b.culprits);
  ExpectSameCandidates(a.candidates, b.candidates);
}

void ExpectSame(const SafeRegionResult& a, const SafeRegionResult& b) {
  EXPECT_EQ(a.region.rects(), b.region.rects());
  EXPECT_EQ(a.customers_processed, b.customers_processed);
  EXPECT_EQ(a.truncated, b.truncated);
}

void ExpectSame(const MwqResult& a, const MwqResult& b) {
  EXPECT_EQ(a.already_member, b.already_member);
  EXPECT_EQ(a.overlap, b.overlap);
  EXPECT_EQ(a.best_cost, b.best_cost);
  ExpectSameCandidates(a.query_candidates, b.query_candidates);
  ExpectSameCandidates(a.why_not_candidates, b.why_not_candidates);
}

/// One query point and the why-not customers asked about it.
struct QueryCase {
  Point q;
  std::vector<size_t> whos;
};

std::vector<QueryCase> FuzzedCases(const Dataset& data, size_t queries,
                                   size_t whos_per_query, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryCase> cases;
  for (Point& q : FreshQueries(data, queries, seed + 1)) {
    QueryCase qc{std::move(q), {}};
    for (size_t k = 0; k < whos_per_query; ++k) {
      qc.whos.push_back(rng.NextUint64(data.size()));
    }
    cases.push_back(std::move(qc));
  }
  return cases;
}

/// Runs all seven request kinds (RSL, Explain, MWP, MQP, SR, MWQ,
/// Approx-MWQ), the why-not ones under both semantics, through the
/// engine's Try* entry points and through the oracle, and requires
/// bit-identical answers with identical work per call. Every query point
/// in `cases` must be distinct and unseen by the current snapshot, so
/// each engine call misses (or hits) its caches exactly where the
/// oracle recomputes (or reuses) a value. Also checks that no engine
/// call reads the dynamic tree. Returns how many (c, q) pairs had c
/// outside RSL(q), so callers can check the inputs are not all trivial.
size_t ExpectAllKindsMatchOracle(WhyNotEngine* engine,
                                 const RStarTree* customer_tree,
                                 const std::vector<QueryCase>& cases) {
  // A mutation: publishes a core with the store and empty caches.
  engine->PrecomputeApproxDsls(kApproxK);
  const EngineSnapshot snapshot = engine->Snapshot();
  const DynamicOracle oracle(snapshot, customer_tree);
  const std::vector<std::vector<Point>> approx_dsls =
      oracle.ApproxDsls(kApproxK);
  const RStarTree& dynamic_tree = snapshot.product_tree();
  const uint64_t dynamic_reads_before = dynamic_tree.stats().node_reads;
  uint64_t oracle_reads = 0;
  size_t non_members = 0;

  // Times the engine call, then the oracle call, and compares their work.
  auto compare_work = [&](const char* kind, const auto& engine_call,
                          const auto& oracle_call) {
    SCOPED_TRACE(kind);
    const QueryStats engine_work = Measure(engine_call);
    const uint64_t before = dynamic_tree.stats().node_reads;
    const QueryStats oracle_work = Measure(oracle_call);
    oracle_reads += dynamic_tree.stats().node_reads - before;
    ExpectSameWork(engine_work, oracle_work);
  };

  for (const QueryCase& qc : cases) {
    const Point& q = qc.q;
    SCOPED_TRACE(testing::Message() << "q=" << q.ToString());
    std::vector<size_t> rsl;
    std::vector<size_t> rsl_o;
    compare_work(
        "rsl", [&] { rsl = Unwrap(snapshot.TryReverseSkyline(q)); },
        [&] { rsl_o = oracle.Rsl(q); });
    EXPECT_EQ(rsl, rsl_o);

    std::shared_ptr<const SafeRegionResult> sr;
    SafeRegionResult sr_o;
    compare_work(
        "sr", [&] { sr = Unwrap(snapshot.TrySafeRegion(q)); },
        [&] { sr_o = oracle.SafeRegion(q, rsl_o); });
    if (sr == nullptr) continue;  // Unwrap recorded the failure.
    ExpectSame(*sr, sr_o);

    std::shared_ptr<const SafeRegionResult> approx_sr;
    SafeRegionResult approx_sr_o;
    compare_work(
        "approx-sr",
        [&] { approx_sr = Unwrap(snapshot.TryApproxSafeRegion(q)); },
        [&] { approx_sr_o = oracle.ApproxSafeRegion(q, rsl_o, approx_dsls); });
    if (approx_sr == nullptr) continue;
    ExpectSame(*approx_sr, approx_sr_o);

    for (size_t c : qc.whos) {
      SCOPED_TRACE(testing::Message() << "c=" << c);
      if (!snapshot.IsLiveProduct(c) && snapshot.shared_relation()) continue;
      if (!snapshot.IsReverseSkylineMember(c, q)) ++non_members;

      WhyNotExplanation ex;
      WhyNotExplanation ex_o;
      compare_work(
          "explain", [&] { ex = Unwrap(snapshot.TryExplain(c, q)); },
          [&] { ex_o = oracle.Explain(c, q); });
      ExpectSame(ex, ex_o);

      for (const Semantics semantics :
           {Semantics::kBoundary, Semantics::kStrict}) {
        SCOPED_TRACE(semantics == Semantics::kStrict ? "strict" : "boundary");
        MwpResult mwp;
        MwpResult mwp_o;
        compare_work(
            "mwp",
            [&] { mwp = Unwrap(snapshot.TryModifyWhyNot(c, q, semantics)); },
            [&] { mwp_o = oracle.Mwp(c, q, semantics); });
        ExpectSame(mwp, mwp_o);

        MqpResult mqp;
        MqpResult mqp_o;
        compare_work(
            "mqp",
            [&] { mqp = Unwrap(snapshot.TryModifyQuery(c, q, semantics)); },
            [&] { mqp_o = oracle.Mqp(c, q, semantics); });
        ExpectSame(mqp, mqp_o);

        MwqResult mwq;
        MwqResult mwq_o;
        compare_work(
            "mwq",
            [&] { mwq = Unwrap(snapshot.TryModifyBoth(c, q, semantics)); },
            [&] { mwq_o = oracle.Mwq(c, q, sr_o.region, rsl_o, semantics); });
        ExpectSame(mwq, mwq_o);

        MwqResult approx;
        MwqResult approx_o;
        compare_work(
            "mwq-approx",
            [&] {
              approx = Unwrap(snapshot.TryModifyBothApprox(c, q, semantics));
            },
            [&] {
              approx_o =
                  oracle.Mwq(c, q, approx_sr_o.region, rsl_o, semantics);
            });
        ExpectSame(approx, approx_o);
      }
    }
  }
  // Only the oracle ever read the dynamic tree.
  EXPECT_EQ(dynamic_tree.stats().node_reads - dynamic_reads_before,
            oracle_reads);
  return non_members;
}

TEST(PackedEngineTest, SharedRelationAnswersIdentical) {
  const Dataset data = GenerateCarDb(1200, 9001);
  WhyNotEngine engine(Dataset(data), SerialOptions());
  EXPECT_GT(ExpectAllKindsMatchOracle(&engine, nullptr,
                                      FuzzedCases(data, 6, 3, 9002)),
            0u);
  // Membership and range queries, the two remaining read entry points.
  const EngineSnapshot snapshot = engine.Snapshot();
  for (const Point& q : FreshQueries(data, 6, 9003)) {
    const Rectangle window(Point({q[0] * 0.8, q[1] * 0.8}),
                           Point({q[0] * 1.2, q[1] * 1.2}));
    const std::vector<RStarTree::Id> ids =
        snapshot.product_tree().RangeQueryIds(window);
    EXPECT_EQ(snapshot.CustomersInRange(window),
              std::vector<size_t>(ids.begin(), ids.end()));
    for (size_t c : {size_t{5}, size_t{600}}) {
      EXPECT_EQ(snapshot.IsReverseSkylineMember(c, q),
                WindowEmpty(snapshot.product_tree(), data.points[c], q,
                            static_cast<RStarTree::Id>(c)));
    }
  }
}

// Semantics::kStrict answers and the LostCustomers probe fan-out on a
// second dataset, with more why-not customers per query.
TEST(PackedEngineTest, WhyNotAlgorithmsIdentical) {
  const Dataset data = GenerateCarDb(800, 9101);
  WhyNotEngine engine(Dataset(data), SerialOptions());
  EXPECT_GT(ExpectAllKindsMatchOracle(&engine, nullptr,
                                      FuzzedCases(data, 4, 5, 9102)),
            0u);
  const EngineSnapshot snapshot = engine.Snapshot();
  const DynamicOracle oracle(snapshot, nullptr);
  for (const Point& q : FreshQueries(data, 4, 9103)) {
    const Point q_star({q[0] * 1.1, q[1] * 0.9});
    EXPECT_EQ(snapshot.LostCustomers(q, q_star),
              oracle.LostCustomers(oracle.Rsl(q), q_star));
  }
}

TEST(PackedEngineTest, BichromaticAnswersIdentical) {
  const Dataset products = GenerateCarDb(700, 9201);
  const Dataset customers = GenerateCarDb(500, 9202);
  WhyNotEngine engine(Dataset(products), Dataset(customers), SerialOptions());
  // The engine bulk-loads its customer tree with the default R*-tree
  // options; the same bulk load gives the oracle the same structure.
  const RStarTree customer_tree =
      BulkLoadPoints(customers.dims, customers.points);
  Rng rng(9203);
  std::vector<QueryCase> cases;
  for (Point& q : FreshQueries(products, 6, 9204)) {
    cases.push_back({std::move(q),
                     {rng.NextUint64(customers.size()),
                      rng.NextUint64(customers.size())}});
  }
  EXPECT_GT(ExpectAllKindsMatchOracle(&engine, &customer_tree, cases), 0u);
}

// Node reads are part of the parity contract: ExpectAllKindsMatchOracle
// checks them per call; here the engine's cumulative stats agree too,
// every one of its reads is attributed to packed.node_reads, and the
// dynamic tree's own counter never moves under engine reads.
TEST(PackedEngineTest, NodeReadParityAndAttribution) {
  const Dataset data = GenerateCarDb(1000, 9301);
  WhyNotEngine engine(Dataset(data), SerialOptions());
  EXPECT_GT(ExpectAllKindsMatchOracle(&engine, nullptr,
                                      FuzzedCases(data, 3, 2, 9302)),
            0u);
  const EngineSnapshot snapshot = engine.Snapshot();
  const uint64_t dynamic_before = snapshot.product_tree().stats().node_reads;
  engine.ResetStats();
  for (const Point& q : FreshQueries(data, 6, 9303)) {
    // wnrs-lint: allow-discard(only the work counters are observed)
    (void)engine.ModifyBoth(7, q);
    const QueryStats last = engine.last_query_stats();
    EXPECT_GT(last.rtree_node_reads, 0u);
    EXPECT_EQ(last.packed_node_reads, last.rtree_node_reads);
  }
  const QueryStats total = engine.stats();
  EXPECT_EQ(total.packed_node_reads, total.rtree_node_reads);
  EXPECT_EQ(snapshot.product_tree().stats().node_reads, dynamic_before);
}

// Each snapshot publish that changes a tree (construction, AddProduct,
// RemoveProduct) freezes exactly one packed image per tree it rebuilds;
// queries and the approximated-DSL pass never freeze.
TEST(PackedEngineTest, FreezeAccounting) {
  const Dataset data = GenerateCarDb(400, 9401);
  MetricsRegistry& registry = MetricsRegistry::Default();

  QueryStats before = registry.CaptureQueryStats();
  WhyNotEngine engine(GenerateCarDb(400, 9401), SerialOptions());
  EXPECT_EQ((registry.CaptureQueryStats() - before).packed_freezes, 1u);

  before = registry.CaptureQueryStats();
  const size_t new_id = engine.AddProduct(data.points[0]);
  EXPECT_EQ((registry.CaptureQueryStats() - before).packed_freezes, 1u);

  before = registry.CaptureQueryStats();
  EXPECT_TRUE(engine.RemoveProduct(new_id));
  EXPECT_EQ((registry.CaptureQueryStats() - before).packed_freezes, 1u);

  before = registry.CaptureQueryStats();
  engine.PrecomputeApproxDsls(kApproxK);
  // wnrs-lint: allow-discard(only the freeze counter is observed)
  (void)engine.ModifyBoth(3, data.points[1]);
  const QueryStats read_delta = registry.CaptureQueryStats() - before;
  EXPECT_EQ(read_delta.packed_freezes, 0u);
  EXPECT_GT(read_delta.packed_node_reads, 0u);

  before = registry.CaptureQueryStats();
  WhyNotEngine bichromatic(GenerateCarDb(300, 9402), GenerateCarDb(200, 9403),
                           SerialOptions());
  EXPECT_EQ((registry.CaptureQueryStats() - before).packed_freezes, 2u);
}

// A random sequence of inserts and deletes re-freezes the packed image at
// every publish; every request kind still matches the oracle over the
// mutated dynamic tree.
TEST(PackedEngineTest, MutationsKeepParity) {
  const Dataset data = GenerateCarDb(500, 9501);
  WhyNotEngine engine(Dataset(data), SerialOptions());
  Rng rng(9502);
  for (int step = 0; step < 24; ++step) {
    const size_t n = engine.products().size();
    if (rng.NextUint64(3) == 0) {
      const Status s = engine.TryRemoveProduct(rng.NextUint64(n));
      EXPECT_TRUE(s.ok() || s.code() == StatusCode::kNotFound)
          << s.ToString();
    } else {
      Point p = data.points[rng.NextUint64(data.size())];
      for (size_t i = 0; i < p.dims(); ++i) {
        p[i] *= rng.NextDouble(0.9, 1.1);
      }
      EXPECT_TRUE(engine.TryAddProduct(p).ok());
    }
  }
  const std::vector<QueryCase> cases =
      FuzzedCases(engine.products(), 5, 3, 9503);
  EXPECT_GT(ExpectAllKindsMatchOracle(&engine, nullptr, cases), 0u);
}

// Eight threads hammer a snapshot while the engine mutates underneath;
// every answer must match the oracle's answer for the pre-mutation state
// (snapshot isolation + read-path parity).
TEST(PackedEngineTest, ConcurrentSnapshotQueriesMatch) {
  const Dataset data = GenerateCarDb(600, 9601);
  WhyNotEngineOptions options;
  options.num_threads = 2;
  WhyNotEngine engine(Dataset(data), options);

  const EngineSnapshot snapshot = engine.Snapshot();
  const DynamicOracle oracle(snapshot, nullptr);
  const std::vector<Point> queries = FreshQueries(data, 24, 9602);
  std::vector<std::vector<size_t>> expected_rsl;
  std::vector<MwpResult> expected_mwp;
  for (size_t i = 0; i < queries.size(); ++i) {
    expected_rsl.push_back(oracle.Rsl(queries[i]));
    expected_mwp.push_back(
        oracle.Mwp((i * 131) % 600, queries[i], Semantics::kBoundary));
  }

  // Mutate after taking the snapshot: the snapshot must keep answering
  // against the frozen pre-mutation image.
  // wnrs-lint: allow-discard(the mutation itself is the point; the
  // snapshot under test must not observe it)
  (void)engine.AddProduct(data.points[11]);

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < queries.size();
           i += kThreads) {
        if (snapshot.ReverseSkyline(queries[i]) != expected_rsl[i]) {
          mismatches.fetch_add(1);
        }
        const size_t c = (i * 131) % 600;
        const MwpResult mwp = snapshot.ModifyWhyNot(c, queries[i]);
        if (mwp.culprits != expected_mwp[i].culprits ||
            mwp.candidates.size() != expected_mwp[i].candidates.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t k = 0; k < mwp.candidates.size(); ++k) {
          if (!(mwp.candidates[k].point ==
                expected_mwp[i].candidates[k].point) ||
              mwp.candidates[k].cost != expected_mwp[i].candidates[k].cost) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// One probe input: customer `c` (a product id under the shared relation,
/// excluded from its own windows) asking about query point `q`.
struct ProbeCase {
  size_t c;
  Point q;
};

/// The per-layer EngineSnapshot::Probe* methods must equal the free
/// functions over the dynamic product tree. Returns how many window
/// probes found the window non-empty, so callers can check the inputs
/// are not all trivial.
size_t ExpectProbesMatchDynamicTree(const Dataset& data,
                                    const std::vector<ProbeCase>& cases) {
  size_t non_empty = 0;
  WhyNotEngine engine(Dataset(data), SerialOptions());
  const EngineSnapshot snapshot = engine.Snapshot();
  const RStarTree& tree = snapshot.product_tree();
  for (const ProbeCase& pc : cases) {
    SCOPED_TRACE(testing::Message()
                 << "c=" << pc.c << " q=" << pc.q.ToString());
    const Point& c = data.points[pc.c];
    const Point& q = pc.q;
    for (const std::optional<RStarTree::Id> exclude :
         {std::optional<RStarTree::Id>(static_cast<RStarTree::Id>(pc.c)),
          std::optional<RStarTree::Id>()}) {
      const bool empty = snapshot.ProbeWindowEmpty(c, q, exclude);
      EXPECT_EQ(empty, WindowEmpty(tree, c, q, exclude));
      if (!empty) ++non_empty;
      EXPECT_EQ(snapshot.ProbeWindowFrontier(c, q, q, exclude),
                WindowSkyline(tree, c, q, q, exclude));
      EXPECT_EQ(snapshot.ProbeWindowFrontier(c, q, c, exclude),
                WindowSkyline(tree, c, q, c, exclude));
      EXPECT_EQ(snapshot.ProbeDynamicSkyline(c, exclude),
                BbsDynamicSkyline(tree, c, exclude));
      EXPECT_EQ(snapshot.ProbeGlobalSkylineCandidates(q, exclude),
                GlobalSkylineCandidates(tree, q, exclude));
    }
  }
  return non_empty;
}

TEST(PackedEngineTest, ProbesMatchFreeFunctionsOnFuzzedCarDb) {
  const Dataset data = GenerateCarDb(900, 9701);
  Rng rng(9702);
  std::vector<ProbeCase> cases;
  for (Point& q : FreshQueries(data, 24, 9703)) {
    cases.push_back({rng.NextUint64(data.size()), std::move(q)});
  }
  EXPECT_GT(ExpectProbesMatchDynamicTree(data, cases), 0u);
}

// Tie-prone grid coordinates: exact duplicates and culprits sharing a
// coordinate with q or c, where a traversal that drops a duplicate or
// reorders equal points would first show up.
Dataset GridTies() {
  Dataset data;
  data.name = "grid";
  data.dims = 2;
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 6; ++y) {
      data.points.push_back(Point({static_cast<double>(x) * 10.0,
                                   static_cast<double>(y) * 10.0}));
    }
  }
  data.points.push_back(Point({20.0, 30.0}));
  data.points.push_back(Point({40.0, 10.0}));
  return data;
}

constexpr double kGridQueryXs[] = {0.0, 15.0, 25.0, 30.0, 55.0};
constexpr size_t kGridWhys[] = {0, 14, 21, 36, 37};

TEST(PackedEngineTest, ProbesMatchFreeFunctionsOnGridTies) {
  std::vector<ProbeCase> cases;
  for (const double qx : kGridQueryXs) {
    for (const size_t c : kGridWhys) {
      cases.push_back({c, Point({qx, 65.0 - qx})});
    }
  }
  EXPECT_GT(ExpectProbesMatchDynamicTree(GridTies(), cases), 0u);
}

TEST(PackedEngineTest, AllKindsMatchDynamicOracleOnGridTies) {
  WhyNotEngine engine(GridTies(), SerialOptions());
  std::vector<QueryCase> cases;
  for (const double qx : kGridQueryXs) {
    cases.push_back({Point({qx, 65.0 - qx}),
                     std::vector<size_t>(std::begin(kGridWhys),
                                         std::end(kGridWhys))});
  }
  EXPECT_GT(ExpectAllKindsMatchOracle(&engine, nullptr, cases), 0u);
}

}  // namespace
}  // namespace wnrs
