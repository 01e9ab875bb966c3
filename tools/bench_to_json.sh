#!/usr/bin/env bash
# Runs the robustness scaling benchmarks and emits BENCH_robustness.json
# (Google Benchmark's JSON format, which embeds the machine context:
# cpu count, frequency, build type). Covers the bitset analyzer's full
# check on the RMW clique and readers/writers families.
#
# With a third argument, additionally runs the many-core MVCC scaling
# sweep (bench_mvcc_scaling) into that file — the throughput-vs-threads
# curves that bench_compare.py groups by the /threads:N name suffix.
#
# usage: tools/bench_to_json.sh [build-dir] [output.json] [scaling.json]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_robustness.json}"
SCALING_OUT="${3:-}"
BIN="$BUILD_DIR/bench/bench_robustness"

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found — build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

"$BIN" \
  --benchmark_filter='BM_BitsetAnalyzer' \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out="$OUT" \
  --benchmark_min_time=0.2 >/dev/null

# Fold a metrics snapshot of a representative instrumented check into the
# benchmark JSON (under "mvrob_metrics"), so one file carries both the
# timings and the work counters (triples examined, words scanned, ...).
MVROB="$BUILD_DIR/tools/mvrob"
if [[ -x "$MVROB" ]]; then
  STATS_TMP="$(mktemp)"
  "$MVROB" check --workload tpcc:w=2,d=2 \
    --stats-json "$STATS_TMP" >/dev/null
  python3 - "$OUT" "$STATS_TMP" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)
with open(sys.argv[2]) as f:
    stats = json.load(f)
bench["mvrob_metrics"] = {
    "workload": "tpcc:w=2,d=2",
    "snapshot": stats,
}
with open(sys.argv[1], "w") as f:
    json.dump(bench, f, indent=1)
PY
  rm -f "$STATS_TMP"

  # Fold the adaptive-allocation counters (adapt.*) from a short
  # `serve --adapt` run into the same JSON (under "mvrob_adapt"), so the
  # snapshot also records the controller's decision/swap journal.
  ADAPT_PORT_FILE="$(mktemp)"
  ADAPT_SNAP="$(mktemp)"
  rm -f "$ADAPT_PORT_FILE"
  "$MVROB" serve \
    --txns 'T1: R[x] W[x]
T2: R[x] W[x]
T3: R[q]' \
    --default SSI --adapt --adapt-interval 1 \
    --port-file "$ADAPT_PORT_FILE" --witness-interval 5 --duration 60 \
    >/dev/null 2>&1 &
  ADAPT_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$ADAPT_PORT_FILE" ]] && break
    sleep 0.1
  done
  if [[ -s "$ADAPT_PORT_FILE" ]]; then
    python3 - "$(cat "$ADAPT_PORT_FILE")" "$ADAPT_SNAP" <<'PY'
import json, sys, time, urllib.request

port, out = int(sys.argv[1]), sys.argv[2]
base = f"http://127.0.0.1:{port}"
snapshot = None
for _ in range(200):  # Wait for the controller's first decision.
    with urllib.request.urlopen(base + "/snapshot", timeout=5) as response:
        snapshot = json.loads(response.read().decode())
    if snapshot["counters"].get("adapt.decisions", 0) >= 1:
        break
    time.sleep(0.1)
adapt = {
    "counters": {k: v for k, v in snapshot["counters"].items()
                 if k.startswith("adapt.")},
    "gauges": {k: v for k, v in snapshot["gauges"].items()
               if k.startswith("adapt.")},
}
with open(out, "w") as f:
    json.dump(adapt, f)
PY
    kill -TERM "$ADAPT_PID" 2>/dev/null || true
    wait "$ADAPT_PID" || true
    python3 - "$OUT" "$ADAPT_SNAP" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)
with open(sys.argv[2]) as f:
    adapt = json.load(f)
bench["mvrob_adapt"] = adapt
with open(sys.argv[1], "w") as f:
    json.dump(bench, f, indent=1)
PY
  else
    kill -TERM "$ADAPT_PID" 2>/dev/null || true
    wait "$ADAPT_PID" || true
    echo "note: serve --adapt never published its port; skipping adapt fold" >&2
  fi
  rm -f "$ADAPT_PORT_FILE" "$ADAPT_SNAP"

  # Fold the transaction-tracer counters (trace.*) from a short
  # `serve --trace-sample` run on a write hot spot into the same JSON
  # (under "mvrob_trace"): sampled flows, spans, and attributed aborts.
  TRACE_PORT_FILE="$(mktemp)"
  TRACE_SNAP="$(mktemp)"
  rm -f "$TRACE_PORT_FILE"
  "$MVROB" serve \
    --txns 'T1: R[x] W[x]
T2: R[x] W[x]
T3: R[x] W[x]' \
    --default SI --concurrency 8 --trace-sample 1 \
    --port-file "$TRACE_PORT_FILE" --duration 60 \
    >/dev/null 2>&1 &
  TRACE_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$TRACE_PORT_FILE" ]] && break
    sleep 0.1
  done
  if [[ -s "$TRACE_PORT_FILE" ]]; then
    python3 - "$(cat "$TRACE_PORT_FILE")" "$TRACE_SNAP" <<'PY'
import json, sys, time, urllib.request

port, out = int(sys.argv[1]), sys.argv[2]
base = f"http://127.0.0.1:{port}"
snapshot = None
for _ in range(200):  # Wait for the first attributed abort.
    with urllib.request.urlopen(base + "/snapshot", timeout=5) as response:
        snapshot = json.loads(response.read().decode())
    if any(k.startswith("trace.aborts_attributed") and v >= 1
           for k, v in snapshot["counters"].items()):
        break
    time.sleep(0.1)
trace = {
    "counters": {k: v for k, v in snapshot["counters"].items()
                 if k.startswith("trace.")},
}
with open(out, "w") as f:
    json.dump(trace, f)
PY
    kill -TERM "$TRACE_PID" 2>/dev/null || true
    wait "$TRACE_PID" || true
    python3 - "$OUT" "$TRACE_SNAP" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)
with open(sys.argv[2]) as f:
    trace = json.load(f)
bench["mvrob_trace"] = trace
with open(sys.argv[1], "w") as f:
    json.dump(bench, f, indent=1)
PY
  else
    kill -TERM "$TRACE_PID" 2>/dev/null || true
    wait "$TRACE_PID" || true
    echo "note: serve --trace-sample never published its port; skipping trace fold" >&2
  fi
  rm -f "$TRACE_PORT_FILE" "$TRACE_SNAP"
else
  echo "note: $MVROB not built; skipping metrics snapshot" >&2
fi

echo "wrote $OUT"

if [[ -n "$SCALING_OUT" ]]; then
  SCALING_BIN="$BUILD_DIR/bench/bench_mvcc_scaling"
  if [[ ! -x "$SCALING_BIN" ]]; then
    echo "error: $SCALING_BIN not found — build first" >&2
    exit 1
  fi
  "$SCALING_BIN" \
    --benchmark_format=json \
    --benchmark_out_format=json \
    --benchmark_out="$SCALING_OUT" \
    --benchmark_min_time=0.1 >/dev/null
  echo "wrote $SCALING_OUT"
fi
