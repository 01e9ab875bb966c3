#!/usr/bin/env python3
"""Builds and runs the mvrob pipeline benchmark (see README.md).

    python3 pipebench/run.py --workload ycsb-rcsi --seed 1 --seconds 25 --trace 0
    python3 pipebench/run.py --self-test

The first form builds the harness from the enclosing source tree (once;
later runs only re-check the build), runs one workload and prints two JSON
lines: a detail record (provenance, gates, sample counts, every metric) and,
last, the result: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones; a traced run also writes its spans and per-call histograms next to
the build. --self-test runs every workload briefly in both modes and checks
that every metric named in BENCHMARK.json is printed with its unit and that
every correctness gate ran and passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pipebench"
BINARY = BUILD / "pipebench"
RUN_TIMEOUT_S = 170
GATES = ["engine_accounting", "allocation_certified", "allocation_minimal",
         "engine_roundtrip", "span_coverage"]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (first time) and builds the harness; output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "pipebench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail(f"build step failed: {' '.join(step)}")


def run_harness(args):
    """Runs the harness; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {mode: {m["name"]: m["unit"] for m in spec[key]}
             for mode, key in (("0", "end_to_end"), ("1", "per_layer"))}
    # Each workload at its own generator spec, plus one other generator
    # seed where the spec has one, so the gates run on a second input.
    cases = [(w["name"], None) for w in spec["workloads"]]
    cases += [("synth-alloc", "synthetic:n=800,seed=4"),
              ("ycsb-rcsi", "ycsb:a,n=64,k=1024,theta=0,seed=2")]
    trace_file = BUILD / "self-test-trace.json"
    problems = []
    for name, other_spec in cases:
        for trace in ("0", "1"):
            args = ["--workload", name, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--round-commits", "2000"]
            if other_spec:
                args += ["--spec", other_spec]
            if trace == "1":
                trace_file.unlink(missing_ok=True)
                args += ["--trace-out", str(trace_file)]
            label = " ".join(filter(None, [name, other_spec,
                                           f"trace={trace}"]))
            code, lines = run_harness(args)
            if code != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {code}")
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            for gate in GATES:
                state = detail["gates"].get(gate)
                if state is None or not state["passed"]:
                    problems.append(f"{label}: gate {gate}: {state}")
            got = result["metrics"]
            for metric, unit in units[trace].items():
                if metric not in got:
                    problems.append(f"{label}: missing metric {metric}")
                elif got[metric].get("unit") != unit:
                    problems.append(f"{label}: {metric} unit "
                                    f"{got[metric].get('unit')} != {unit}")
            if trace == "1":
                written = json.loads(trace_file.read_text())
                if not written["spans"] or set(written["calls"]) != {
                        f"mvcc.{c}" for c in ("begin", "read", "write",
                                              "commit_rc", "commit_si",
                                              "commit_ssi", "abort")}:
                    problems.append(f"{label}: trace file lacks spans "
                                    "or calls")
            extra = set(got) - set(units[trace])
            if extra:
                problems.append(f"{label}: undeclared metrics {sorted(extra)}")
            print(f"self-test {label}: {len(got)} metrics, "
                  f"{len(detail['gates'])} gates", file=sys.stderr)
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"self_test": "failed" if problems else "passed",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not args.self_test and not args.workload:
        fail("--workload is required")
    build()
    if args.self_test:
        return self_test()
    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        harness_args += ["--trace-out",
                        str(BUILD / f"trace-{args.workload}-{args.seed}.json")]
    code, lines = run_harness(harness_args)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
