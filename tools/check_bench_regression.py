#!/usr/bin/env python3
"""Compare bench --json outputs against a committed baseline.

Usage:
  # Gate a fresh run of the short-mode benches against the baseline:
  python3 tools/check_bench_regression.py \
      --baseline bench/baseline.json --current <dir-with-*.json>

  # Regenerate the baseline from a directory of bench outputs:
  python3 tools/check_bench_regression.py \
      --current <dir-with-*.json> --write-baseline bench/baseline.json

The gate is intentionally generous: CI runners and dev machines differ
widely, so wall-clock times only fail when they exceed the baseline by
--wall-tolerance (default 2.0x) AND the baseline time is above a noise
floor (--wall-floor-ms, default 50 ms — sub-50 ms configs are dominated
by scheduling jitter). Work counters (R*-tree node reads, dominance
tests, ...) are deterministic for a fixed seed, so they use the tighter
--counter-tolerance (default 1.5x) with an absolute floor of
--counter-floor (default 1000) to ignore churn in tiny counts.

A baseline config missing from the current run is an error: a bench that
silently stops running a configuration must not pass the gate. The
converse also fails by default: a bench or config present in the current
run but absent from the baseline means someone added a benchmark without
regenerating bench/baseline.json, and an ungated benchmark is a silent
hole in the perf gate. Pass --allow-new to downgrade those to warnings
(useful while iterating locally before the baseline refresh).

Counters whose values depend on the host (thread-pool task splits,
freeze nanoseconds) or on scheduling interleavings (the serve.* counters,
cache hit/miss splits under concurrent callers) are skipped entirely;
benches listed in NONDETERMINISTIC_BENCHES gate on wall time only.

Improvement gates compare two configs *within the current run*, so they
are immune to cross-host noise. Each (repeatable) spec

  --improvement BENCH/FAST/SLOW[:METRIC[:FLOOR]][@MINCORES]

asserts that config FAST of bench BENCH scores strictly less than config
SLOW times FLOOR (default 1.0) on METRIC (default wall_ms; counter names
work too). The packed-read-path bench uses this to make "packed beats
dynamic" a CI invariant rather than a claim.

A trailing @MINCORES guards speedup gates that only hold with real
parallelism: the spec is skipped (with a printed notice) when the bench
report's `host_cores` field — std::thread::hardware_concurrency() at run
time, recorded by BenchReporter — is below MINCORES. A report without
the field counts as unknown and is skipped too. Use it for gates like
"4 threads beat 1 on a batched MWQ run", which holds on the 4-core CI
runners but means nothing on a 1-core dev container.

Exit codes: 0 = pass, 1 = regression or missing data, 2 = usage error.
"""

import argparse
import json
import pathlib
import sys

# Counters that legitimately vary across hosts or runs: thread-pool work
# splitting depends on core count, and the serve/cache counters depend on
# which requests happened to share a dispatch batch or find a warm cache.
HOST_DEPENDENT_COUNTERS = {
    "packed_freeze_ns",
    "pool_parallel_fors",
    "pool_tasks_executed",
    "rsl_cache_hits",
    "rsl_cache_misses",
    "rsl_cache_evictions",
    "serve_requests",
    "serve_admission_rejects",
    "serve_deadline_misses",
    "serve_batch_share_hits",
}

# Benches whose work counters are interleaving-dependent end to end
# (concurrent callers racing over shared caches): gate on wall time only.
NONDETERMINISTIC_BENCHES = {"serve_throughput", "parallel_scaling", "loadgen"}


def load_current(current_dir):
    """Load every *.json bench report in current_dir, keyed by bench name."""
    benches = {}
    paths = sorted(pathlib.Path(current_dir).glob("*.json"))
    if not paths:
        print(f"error: no *.json files found in {current_dir}", file=sys.stderr)
        sys.exit(2)
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot parse {path}: {e}", file=sys.stderr)
            sys.exit(1)
        name = doc.get("bench")
        if not name or "records" not in doc:
            print(f"error: {path} is not a bench report (missing 'bench'/"
                  f"'records')", file=sys.stderr)
            sys.exit(1)
        if name in benches:
            print(f"error: duplicate bench '{name}' (from {path})",
                  file=sys.stderr)
            sys.exit(1)
        benches[name] = doc
    return benches


def records_by_config(doc):
    return {rec["config"]: rec for rec in doc.get("records", [])}


def parse_improvement(spec):
    """Parses BENCH/FAST/SLOW[:METRIC[:FLOOR]][@MINCORES] into its parts."""
    min_cores = 0
    if "@" in spec:
        spec, _, cores_part = spec.rpartition("@")
        try:
            min_cores = int(cores_part)
        except ValueError:
            print(f"error: bad @MINCORES in --improvement spec "
                  f"'{spec}@{cores_part}'", file=sys.stderr)
            sys.exit(2)
    path = spec
    metric = "wall_ms"
    floor = 1.0
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) > 3:
            print(f"error: malformed --improvement spec '{spec}'",
                  file=sys.stderr)
            sys.exit(2)
        path = parts[0]
        if len(parts) >= 2 and parts[1]:
            metric = parts[1]
        if len(parts) == 3:
            try:
                floor = float(parts[2])
            except ValueError:
                print(f"error: bad floor in --improvement spec '{spec}'",
                      file=sys.stderr)
                sys.exit(2)
    pieces = path.split("/")
    if len(pieces) != 3 or not all(pieces):
        print(f"error: malformed --improvement spec '{spec}' "
              f"(want BENCH/FAST/SLOW[:METRIC[:FLOOR]][@MINCORES])",
              file=sys.stderr)
        sys.exit(2)
    return pieces[0], pieces[1], pieces[2], metric, floor, min_cores


def metric_value(rec, metric):
    if metric == "wall_ms":
        return float(rec.get("wall_ms", 0.0))
    counters = rec.get("counters", {})
    if metric not in counters:
        return None
    return float(counters[metric])


def check_improvements(current, specs):
    """Within-run gates: FAST must score < SLOW * FLOOR on METRIC."""
    failures = []
    for spec in specs:
        bench, fast_cfg, slow_cfg, metric, floor, min_cores = \
            parse_improvement(spec)
        doc = current.get(bench)
        if doc is None:
            failures.append(f"{bench}: bench missing, cannot check "
                            f"improvement '{spec}'")
            continue
        if min_cores:
            host_cores = int(doc.get("host_cores", 0))
            if host_cores < min_cores:
                print(f"improvement skipped: '{spec}' needs >= {min_cores} "
                      f"cores, bench ran on {host_cores or 'unknown'}")
                continue
        recs = records_by_config(doc)
        missing = [c for c in (fast_cfg, slow_cfg) if c not in recs]
        if missing:
            failures.append(f"{bench}: config(s) {missing} missing, cannot "
                            f"check improvement '{spec}'")
            continue
        fast_val = metric_value(recs[fast_cfg], metric)
        slow_val = metric_value(recs[slow_cfg], metric)
        if fast_val is None or slow_val is None:
            failures.append(f"{bench}: metric '{metric}' missing, cannot "
                            f"check improvement '{spec}'")
            continue
        if fast_val >= slow_val * floor:
            failures.append(
                f"{bench}: {fast_cfg} {metric} {fast_val:g} >= "
                f"{slow_cfg} {slow_val:g} x {floor:g} — expected improvement "
                f"did not hold")
        else:
            print(f"improvement ok: {bench}/{fast_cfg} {metric} {fast_val:g} "
                  f"< {slow_cfg} {slow_val:g} x {floor:g}")
    return failures


def check(baseline, current, args):
    failures = []
    warnings = []
    new_entries = []
    for bench_name, base_doc in sorted(baseline.get("benches", {}).items()):
        cur_doc = current.get(bench_name)
        if cur_doc is None:
            failures.append(f"{bench_name}: bench missing from current run")
            continue
        base_recs = records_by_config(base_doc)
        cur_recs = records_by_config(cur_doc)
        for config, base_rec in sorted(base_recs.items()):
            cur_rec = cur_recs.get(config)
            if cur_rec is None:
                failures.append(
                    f"{bench_name}/{config}: config missing from current run")
                continue
            base_ms = float(base_rec.get("wall_ms", 0.0))
            cur_ms = float(cur_rec.get("wall_ms", 0.0))
            if base_ms >= args.wall_floor_ms and \
                    cur_ms > base_ms * args.wall_tolerance:
                failures.append(
                    f"{bench_name}/{config}: wall_ms {cur_ms:.1f} > "
                    f"{base_ms:.1f} x {args.wall_tolerance:.2f}")
            elif base_ms >= args.wall_floor_ms and \
                    cur_ms * args.wall_tolerance < base_ms:
                warnings.append(
                    f"{bench_name}/{config}: wall_ms {cur_ms:.1f} is "
                    f">{args.wall_tolerance:.2f}x faster than baseline "
                    f"{base_ms:.1f} — consider regenerating the baseline")
            if bench_name in NONDETERMINISTIC_BENCHES:
                continue
            base_counters = base_rec.get("counters", {})
            cur_counters = cur_rec.get("counters", {})
            for key, base_val in sorted(base_counters.items()):
                if key in HOST_DEPENDENT_COUNTERS:
                    continue
                base_val = int(base_val)
                cur_val = int(cur_counters.get(key, 0))
                if base_val < args.counter_floor and \
                        cur_val < args.counter_floor:
                    continue
                if cur_val > base_val * args.counter_tolerance:
                    failures.append(
                        f"{bench_name}/{config}: counter {key} {cur_val} > "
                        f"{base_val} x {args.counter_tolerance:.2f}")
                elif base_val > 0 and \
                        cur_val * args.counter_tolerance < base_val:
                    warnings.append(
                        f"{bench_name}/{config}: counter {key} dropped "
                        f"{base_val} -> {cur_val} — verify the work did not "
                        f"silently disappear")
        for config in sorted(set(cur_recs) - set(base_recs)):
            new_entries.append(
                f"{bench_name}/{config}: new config, not in baseline")
    for bench_name in sorted(set(current) - set(baseline.get("benches", {}))):
        new_entries.append(f"{bench_name}: new bench, not in baseline")
    if args.allow_new:
        warnings.extend(f"{e} (not gated)" for e in new_entries)
    else:
        failures.extend(
            f"{e} — regenerate bench/baseline.json (--write-baseline) or "
            f"pass --allow-new" for e in new_entries)
    return failures, warnings


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--current", required=True,
                        help="directory of bench --json outputs")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write a fresh baseline from --current and exit")
    parser.add_argument("--wall-tolerance", type=float, default=2.0)
    parser.add_argument("--wall-floor-ms", type=float, default=50.0)
    parser.add_argument("--counter-tolerance", type=float, default=1.5)
    parser.add_argument("--counter-floor", type=int, default=1000)
    parser.add_argument("--allow-new", action="store_true",
                        help="downgrade 'bench/config not in baseline' from "
                             "a failure to a warning (default: fail, so new "
                             "benchmarks cannot land without baseline "
                             "entries)")
    parser.add_argument("--only", action="append", default=[], metavar="BENCH",
                        help="restrict the baseline comparison to the named "
                             "bench(es): other baseline entries are not "
                             "required to be present in --current, and other "
                             "current benches are ignored. For partial runs "
                             "like the serve-loadtest job, which produces "
                             "only loadgen.json. Repeatable.")
    parser.add_argument("--improvement", action="append", default=[],
                        metavar="BENCH/FAST/SLOW[:METRIC[:FLOOR]][@MINCORES]",
                        help="require config FAST to beat config SLOW within "
                             "the current run — a same-host comparison that "
                             "is immune to runner speed variance, unlike the "
                             "cross-run baseline gate. BENCH is the JSON "
                             "stem under --current (e.g. packed_read_path "
                             "for packed_read_path.json); FAST and SLOW are "
                             "'config' names inside its records; METRIC is "
                             "wall_ms (default) or any counter key; FLOOR "
                             "is the minimum SLOW/FAST ratio (default 1.0, "
                             "so 1.10 demands FAST win by >=10%%); a "
                             "trailing @MINCORES skips the spec when the "
                             "report's host_cores is below MINCORES (for "
                             "parallel-speedup gates on small runners). "
                             "Repeatable; every spec must pass. Example: "
                             "--improvement packed_read_path/bbs-packed/"
                             "bbs-dynamic:wall_ms:1.05")
    args = parser.parse_args()

    current = load_current(args.current)
    if args.only:
        unknown = sorted(set(args.only) - set(current))
        if unknown:
            print(f"error: --only bench(es) not in --current: "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 1
        current = {k: v for k, v in current.items() if k in args.only}

    improvement_failures = check_improvements(current, args.improvement)

    if args.write_baseline:
        if improvement_failures:
            for f_ in improvement_failures:
                print(f"FAIL: {f_}")
            print("refusing to write a baseline from a run that violates "
                  "its improvement gates")
            return 1
        doc = {"comment": "Generated by tools/check_bench_regression.py "
                          "--write-baseline from short-mode bench runs.",
               "benches": current}
        with open(args.write_baseline, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.write_baseline} "
              f"({len(current)} benches)")
        return 0

    if not args.baseline:
        parser.error("--baseline is required unless --write-baseline is given")
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read baseline {args.baseline}: {e}",
              file=sys.stderr)
        return 1
    if args.only:
        baseline = dict(baseline)
        baseline["benches"] = {k: v
                               for k, v in baseline.get("benches", {}).items()
                               if k in args.only}

    failures, warnings = check(baseline, current, args)
    failures.extend(improvement_failures)
    for w in warnings:
        print(f"warning: {w}")
    for f_ in failures:
        print(f"FAIL: {f_}")
    n_benches = len(baseline.get("benches", {}))
    if failures:
        print(f"\n{len(failures)} regression(s) across {n_benches} "
              f"baselined benches")
        return 1
    print(f"\nOK: {n_benches} baselined benches within tolerance "
          f"({len(warnings)} warnings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
