// Reproduces Fig. 15: "Execution time of MWP, MQP, Safe Region (SR) and
// MWQ in CarDB and synthetic datasets" per |RSL| bucket.
//
// Expected shapes: MWP and MQP are orders of magnitude cheaper than MWQ;
// SR computation dominates MWQ and grows with |RSL|.

#include "bench_util.h"
#include "core/mwq.h"
#include "core/safe_region.h"
#include "index/packed_rtree.h"

namespace {

using namespace wnrs;
using namespace wnrs::bench;

void RunConfig(const char* kind, size_t n, uint64_t seed, size_t max_rsl) {
  WhyNotEngine engine(MakeDataset(kind, n, seed));
  const auto workload = MakeWorkload(engine, 3000, seed + 7, 1, max_rsl);
  // The engine serves SR and MWQ from a packed image of its tree; the
  // free functions below run on the same kind of image, frozen once here,
  // outside the timed regions.
  const PackedRTree packed = PackedRTree::Freeze(engine.product_tree());
  std::printf("\n--- %s-%zuK ---\n", kind, n / 1000);
  std::printf("%-8s %-12s %-12s %-12s %-12s\n", "|RSL|", "MWP (ms)",
              "MQP (ms)", "SR (ms)", "MWQ (ms)");
  for (const WhyNotWorkloadQuery& wq : workload) {
    WallTimer timer;
    // wnrs-lint: allow-discard(timed region measures the call, not the answer)
    (void)engine.ModifyWhyNot(wq.why_not_index, wq.q);
    const double mwp_ms = timer.ElapsedMillis();

    timer.Restart();
    // wnrs-lint: allow-discard(timed region measures the call, not the answer)
    (void)engine.ModifyQuery(wq.why_not_index, wq.q);
    const double mqp_ms = timer.ElapsedMillis();

    // The free functions bypass the engine's per-query SR cache, so the
    // timings below include computing the DSL of every reverse-skyline
    // point — the dominant cost the paper reports.
    SafeRegionOptions sr_options;
    timer.Restart();
    const SafeRegionResult sr = ComputeSafeRegion(
        packed, engine.products().points, engine.customers().points, wq.rsl,
        wq.q, engine.universe(), engine.shared_relation(), sr_options);
    const double sr_ms = timer.ElapsedMillis();

    timer.Restart();
    const SafeRegionResult sr2 = ComputeSafeRegion(
        packed, engine.products().points, engine.customers().points, wq.rsl,
        wq.q, engine.universe(), engine.shared_relation(), sr_options);
    // wnrs-lint: allow-discard(timed region measures the call, not the answer)
    (void)ModifyQueryAndWhyNotPoint(
        packed, engine.products().points,
        engine.customers().points[wq.why_not_index], wq.q, sr2.region,
        engine.universe(), engine.cost_model(), 0,
        engine.shared_relation()
            ? std::optional<RStarTree::Id>(
                  static_cast<RStarTree::Id>(wq.why_not_index))
            : std::nullopt);
    const double mwq_ms = timer.ElapsedMillis();

    std::printf("%-8zu %-12.3f %-12.3f %-12.3f %-12.3f\n", wq.rsl.size(),
                mwp_ms, mqp_ms, sr_ms, mwq_ms);
    (void)sr;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  std::printf(
      "=== Fig. 15: execution time of MWP, MQP, SR and MWQ ===\n"
      "(SR and MWQ are timed without the per-query SR cache, so each "
      "includes\ncomputing the DSL of every reverse-skyline point, as in "
      "the paper.)\n");
  BenchReporter reporter("fig15_exec_time", args);
  auto run = [&](const char* kind, size_t n, uint64_t seed, size_t max_rsl) {
    reporter.Begin(StrFormat("%s-%zuK", kind, n / 1000));
    RunConfig(kind, n, seed, max_rsl);
    reporter.End();
  };
  if (args.short_mode) {
    run("CarDB", 20000, 5100, 8);
  } else {
    run("CarDB", 100000, 5100, 15);
    run("CarDB", 200000, 5200, 15);
    run("UN", 100000, 5300, 15);
    run("AC", 100000, 5400, 15);
  }
  return reporter.Write() ? 0 : 1;
}
