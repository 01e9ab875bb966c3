#!/usr/bin/env python3
"""Bench-regression gate: diff a fresh benchmark JSON (BENCH_robustness,
BENCH_promotion, ...) against the committed baseline.

Two kinds of checks, reflecting the two kinds of numbers in the file:

 - per-benchmark cpu_time ratios (fresh / baseline) against a threshold
   (default 2.0x, overridable with --threshold or MVROB_BENCH_THRESHOLD).
   Timings are machine-dependent, so the gate is deliberately loose: it
   catches algorithmic regressions (a 10x blowup), not noise;
 - machine-INDEPENDENT outcome numbers, which must match exactly:
   the audited work counter analyzer.triples_examined from the embedded
   metrics snapshot (the scan contract of core/robustness.h), and the
   promotion-outcome counters (before_weighted, after_weighted,
   promotions) that BM_OptimizePromotions attaches to its rows — a
   changed allocation cost is a behavior change, not noise.

Timings compare only between like machines: when the two files'
context.num_cpus differ, the gate fails before comparing anything (re-record
the baseline on this machine with --update).

A benchmark present in the baseline but missing from the fresh run fails
the gate (silently dropping a benchmark is how regressions hide); new
benchmarks are reported and pass.

Scaling benchmarks (names carrying a /threads:N suffix, e.g.
BM_MvccScaling/RC_low/threads:4/real_time) get two extra treatments:
their ratio check uses real_time rather than cpu_time (the workers are
internal threads, so cpu_time aggregates all cores and hides scaling),
and the rows of one family are grouped into a throughput-vs-threads
curve. --min-speedup PATTERN=X (repeatable) asserts that, in the FRESH
run, every matching curve speeds up at least X-fold from its lowest to
its highest thread count — the acceptance gate for the many-core engine,
only meaningful on a machine with that many cores (ci.sh guards it with
nproc).

usage: bench_compare.py <fresh.json> <baseline.json> [--threshold X]
                        [--warn-only] [--update]
                        [--min-speedup PATTERN=X ...]

--update writes the fresh results over the baseline (seeding or refreshing
it) and exits 0. --warn-only reports regressions but exits 0; ci.sh uses
it for the seeding run and MVROB_BENCH_GATE=warn.
"""

import argparse
import json
import os
import re
import sys

# "<family>/threads:<n>" with Google Benchmark's optional trailing
# "/real_time" (UseRealTime) modifier.
THREADS_SUFFIX = re.compile(r"^(?P<family>.+)/threads:(?P<n>\d+)"
                            r"(?P<modifier>/real_time)?$")


def load(path):
    with open(path) as f:
        return json.load(f)


def benchmark_times(doc):
    """name -> time (ns), skipping aggregate rows.

    Scaling rows (/threads:N suffix) are compared on real_time; everything
    else on cpu_time.
    """
    times = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        metric = "real_time" if THREADS_SUFFIX.match(bench["name"]) \
            else "cpu_time"
        times[bench["name"]] = float(bench[metric])
    return times


def scaling_curves(doc):
    """family -> {threads: real_time (ns)} for /threads:N benchmarks."""
    curves = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        match = THREADS_SUFFIX.match(bench["name"])
        if not match:
            continue
        family = match.group("family")
        curves.setdefault(family, {})[int(match.group("n"))] = \
            float(bench["real_time"])
    return curves


def check_min_speedups(curves, requirements):
    """Returns failure strings for unmet PATTERN=X speedup requirements."""
    failures = []
    for pattern, minimum in requirements:
        matched = {name: curve for name, curve in curves.items()
                   if pattern in name}
        if not matched:
            failures.append(f"--min-speedup {pattern}={minimum}: no "
                            "scaling benchmark matches the pattern")
            continue
        for name, curve in sorted(matched.items()):
            if len(curve) < 2:
                failures.append(f"{name}: only one thread count; cannot "
                                "compute a speedup")
                continue
            low, high = min(curve), max(curve)
            # Fixed work per iteration: speedup = time(low)/time(high).
            speedup = curve[low] / curve[high] if curve[high] > 0 else 0.0
            marker = "ok" if speedup >= minimum else "TOO SLOW"
            print(f"  {marker:>10}  {speedup:6.2f}x  {name} "
                  f"(threads {low} -> {high}, need >= {minimum:.2f}x)")
            if speedup < minimum:
                failures.append(
                    f"{name}: speedup {speedup:.2f}x from {low} to {high} "
                    f"threads is below the required {minimum:.2f}x")
    return failures


# Benchmark counters that are deterministic outcomes of the code under
# benchmark (not timings): compared exactly when present in the baseline.
EXACT_COUNTERS = ("before_weighted", "after_weighted", "promotions")


def outcome_counters(doc):
    """name -> {counter: value} for the exact-checked counters."""
    outcomes = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        exact = {key: bench[key] for key in EXACT_COUNTERS if key in bench}
        if exact:
            outcomes[bench["name"]] = exact
    return outcomes


def num_cpus(doc):
    return doc.get("context", {}).get("num_cpus")


def triples_examined(doc):
    try:
        counters = doc["mvrob_metrics"]["snapshot"]["counters"]
        return int(counters["analyzer.triples_examined"])
    except (KeyError, TypeError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    parser.add_argument("baseline")
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("MVROB_BENCH_THRESHOLD", "2.0")),
        help="max allowed cpu_time ratio fresh/baseline (default 2.0)",
    )
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0")
    parser.add_argument("--update", action="store_true",
                        help="write fresh results over the baseline")
    parser.add_argument(
        "--min-speedup", action="append", default=[],
        metavar="PATTERN=X",
        help="require every fresh /threads:N curve whose family name "
             "contains PATTERN to speed up >= X-fold from its lowest to "
             "its highest thread count (repeatable)")
    args = parser.parse_args()

    requirements = []
    for spec in args.min_speedup:
        pattern, sep, value = spec.rpartition("=")
        try:
            if not sep or not pattern:
                raise ValueError
            requirements.append((pattern, float(value)))
        except ValueError:
            parser.error(f"--min-speedup expects PATTERN=X, got {spec!r}")

    fresh = load(args.fresh)

    if args.update:
        os.makedirs(os.path.dirname(os.path.abspath(args.baseline)),
                    exist_ok=True)
        with open(args.baseline, "w") as f:
            json.dump(fresh, f, indent=1)
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = load(args.baseline)
    if num_cpus(fresh) != num_cpus(baseline):
        print(f"bench gate: {args.fresh} ran on {num_cpus(fresh)} CPU(s) but "
              f"{args.baseline} was recorded on {num_cpus(baseline)}; "
              "timings from different machines are not comparable — "
              "re-record the baseline here with --update",
              file=sys.stderr)
        return 0 if args.warn_only else 1
    fresh_times = benchmark_times(fresh)
    baseline_times = benchmark_times(baseline)

    failures = []
    for name, base_time in sorted(baseline_times.items()):
        if name not in fresh_times:
            failures.append(f"benchmark disappeared: {name}")
            continue
        if base_time <= 0:
            continue
        ratio = fresh_times[name] / base_time
        marker = "REGRESSION" if ratio > args.threshold else "ok"
        print(f"  {marker:>10}  {ratio:6.2f}x  {name}")
        if ratio > args.threshold:
            failures.append(
                f"{name}: cpu_time {fresh_times[name]:.0f}ns vs baseline "
                f"{base_time:.0f}ns ({ratio:.2f}x > {args.threshold:.2f}x)")
    for name in sorted(set(fresh_times) - set(baseline_times)):
        print(f"  {'new':>10}  {'':>7}  {name}")

    fresh_outcomes = outcome_counters(fresh)
    for name, base_exact in sorted(outcome_counters(baseline).items()):
        fresh_exact = fresh_outcomes.get(name)
        if fresh_exact is None:
            # Already reported as a disappeared benchmark above.
            continue
        for key, base_value in sorted(base_exact.items()):
            fresh_value = fresh_exact.get(key)
            if fresh_value != base_value:
                failures.append(
                    f"{name}: {key} changed: {fresh_value} vs baseline "
                    f"{base_value} — promotion outcomes are machine-"
                    "independent, so this is a behavior change, not noise")
            else:
                print(f"  {'ok':>10}  {'exact':>7}  {name}:{key} = "
                      f"{base_value}")

    fresh_triples = triples_examined(fresh)
    base_triples = triples_examined(baseline)
    if base_triples is not None:
        if fresh_triples != base_triples:
            failures.append(
                "analyzer.triples_examined changed: "
                f"{fresh_triples} vs baseline {base_triples} — the audited "
                "scan contract is machine-independent, so this is a "
                "behavior change, not noise")
        else:
            print(f"  {'ok':>10}  {'exact':>7}  "
                  f"analyzer.triples_examined = {base_triples}")

    curves = scaling_curves(fresh)
    for family, curve in sorted(curves.items()):
        points = ", ".join(f"{n}t={curve[n] / 1e6:.1f}ms"
                           for n in sorted(curve))
        print(f"  {'curve':>10}  {'':>7}  {family}: {points}")
    failures += check_min_speedups(curves, requirements)

    if not failures:
        print(f"bench gate OK: {len(baseline_times)} benchmarks within "
              f"{args.threshold:.2f}x of baseline")
        return 0
    print(f"bench gate: {len(failures)} regression(s)", file=sys.stderr)
    for failure in failures:
        print(f"  - {failure}", file=sys.stderr)
    if args.warn_only:
        print("(warn-only: not failing the build)", file=sys.stderr)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
