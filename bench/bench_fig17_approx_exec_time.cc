// Reproduces Fig. 17: "Execution time of MWP, MQP, and Approx-MWQ" — with
// precomputed approximated DSLs the online MWQ cost collapses (the paper:
// "from mins to secs"), because the safe region no longer needs a fresh
// DSL computation per reverse-skyline point.

#include "bench_util.h"
#include "core/safe_region.h"
#include "index/packed_rtree.h"

namespace {

using namespace wnrs;
using namespace wnrs::bench;

void RunConfig(const char* kind, size_t n, size_t k, uint64_t seed,
               size_t max_rsl) {
  WhyNotEngine engine(MakeDataset(kind, n, seed));
  WallTimer precompute_timer;
  engine.PrecomputeApproxDsls(k);
  const double precompute_s = precompute_timer.ElapsedSeconds();
  const auto workload = MakeWorkload(engine, 3000, seed + 7, 1, max_rsl);
  // The exact-SR column runs on the packed tree the engine serves from,
  // frozen once here, outside the timed regions.
  const PackedRTree packed = PackedRTree::Freeze(engine.product_tree());
  std::printf("\n--- %s-%zuK (k=%zu, offline precompute %.1fs) ---\n", kind,
              n / 1000, k, precompute_s);
  std::printf("%-8s %-10s %-10s %-14s %-14s %-16s %-14s\n", "|RSL|",
              "MWP(ms)", "MQP(ms)", "SR-exact(ms)", "SR-approx(ms)",
              "Approx-MWQ(ms)", "MWQ(ms)");
  for (const WhyNotWorkloadQuery& wq : workload) {
    WallTimer timer;
    // wnrs-lint: allow-discard(timed region measures the call, not the answer)
    (void)engine.ModifyWhyNot(wq.why_not_index, wq.q);
    const double mwp_ms = timer.ElapsedMillis();

    timer.Restart();
    // wnrs-lint: allow-discard(timed region measures the call, not the answer)
    (void)engine.ModifyQuery(wq.why_not_index, wq.q);
    const double mqp_ms = timer.ElapsedMillis();

    // Exact safe region (per-query DSL computation) vs approximated safe
    // region (intersections over the precomputed store only) — the
    // contrast the paper's "mins to secs" claim rests on.
    SafeRegionOptions sr_options;
    timer.Restart();
    const SafeRegionResult exact_sr = ComputeSafeRegion(
        packed, engine.products().points, engine.customers().points, wq.rsl,
        wq.q, engine.universe(), engine.shared_relation(), sr_options);
    const double exact_sr_ms = timer.ElapsedMillis();
    (void)exact_sr;

    // Approximated SR, engine-cached per query point (distinct per row,
    // so the first computation below is cold).
    timer.Restart();
    // wnrs-lint: allow-discard(timed region measures the call, not the answer)
    (void)engine.ApproxSafeRegion(wq.q);
    const double approx_sr_ms = timer.ElapsedMillis();

    timer.Restart();
    // wnrs-lint: allow-discard(timed region measures the call, not the answer)
    (void)engine.ModifyBothApprox(wq.why_not_index, wq.q);
    const double approx_mwq_ms = timer.ElapsedMillis();

    timer.Restart();
    // wnrs-lint: allow-discard(timed region measures the call, not the answer)
    (void)engine.ModifyBoth(wq.why_not_index, wq.q);
    const double mwq_ms = timer.ElapsedMillis();

    std::printf("%-8zu %-10.3f %-10.3f %-14.3f %-14.3f %-16.3f %-14.3f\n",
                wq.rsl.size(), mwp_ms, mqp_ms, exact_sr_ms, approx_sr_ms,
                approx_mwq_ms, mwq_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  std::printf("=== Fig. 17: execution time with precomputed approx DSLs ===\n");
  BenchReporter reporter("fig17_approx_exec_time", args);
  auto run = [&](const char* kind, size_t n, size_t k, uint64_t seed,
                 size_t max_rsl) {
    reporter.Begin(StrFormat("%s-%zuK-k%zu", kind, n / 1000, k));
    RunConfig(kind, n, k, seed, max_rsl);
    reporter.End();
  };
  if (args.short_mode) {
    run("CarDB", 20000, 10, 6100, 8);
  } else {
    run("CarDB", 100000, 10, 6100, 15);
    run("CarDB", 200000, 20, 6200, 15);
    run("UN", 100000, 10, 6300, 15);
    run("AC", 100000, 10, 6400, 15);
  }
  return reporter.Write() ? 0 : 1;
}
