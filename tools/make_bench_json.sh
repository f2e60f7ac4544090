#!/usr/bin/env bash
# Regenerates BENCH_PR10.json — the committed structured-results report —
# from the five --json-out instrumented benches, plus a tracing-overhead
# measurement (fig11 smoke runs with the span ring on vs off). Run from
# the repo root after a release build:
#
#   cmake -B build -S . && cmake --build build -j
#   tools/make_bench_json.sh build BENCH_PR10.json
#
# Each bench writes {"bench": ..., "results": [...]}; the report is the
# JSON array of the four plus a "trace_overhead" object. The
# net_multiclient rows carry two serving acceptances: the
# "net_multiclient_fairshare" row must have fair_share_ok=true (a
# scheduler-capped greedy tenant may not push another tenant's p99 batch
# latency past 2x its solo baseline), and the "net_pipeline_speedup" row
# must have pipeline_ok=true (a depth-16 pipelined client must move at
# least 2x the serial (depth-1) throughput on small cache-resident reads). The
# fig14 "fig14_cluster_reuse" row must have cluster_ok=true (peer view
# reuse across a 3-node sharded store cluster must cut WAN traffic at
# least 1.5x against the solo no-peer baseline). The
# overhead budget for always-on tracing is <3% on the fig11 demand bench;
# the comparison uses avg iteration time (histogram quantiles are bucket
# midpoints — too coarse for a small delta), min over OVERHEAD_RUNS runs
# of each configuration to cut scheduler noise.
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-BENCH_PR10.json}"
OVERHEAD_RUNS="${OVERHEAD_RUNS:-3}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "make_bench_json: fig11 (single task)..." >&2
"$BUILD/bench/bench_fig11_single_task" --json-out "$TMP/fig11.json" >/dev/null
echo "make_bench_json: fig17 (storage pruning + codec sweep)..." >&2
"$BUILD/bench/bench_fig17_storage_pruning" --json-out "$TMP/fig17.json" >/dev/null
echo "make_bench_json: micro (codec throughput)..." >&2
"$BUILD/bench/bench_micro_compress" --json-out "$TMP/micro.json" >/dev/null
echo "make_bench_json: net (multi-tenant serving)..." >&2
"$BUILD/bench/bench_net_multiclient" --json-out "$TMP/net.json" >/dev/null
python3 - "$TMP/net.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = [r for r in doc["results"] if r["name"] == "net_multiclient_fairshare"]
if not rows:
    sys.exit("net bench: no fairshare row")
if rows[0]["params"]["fair_share_ok"] != "true":
    sys.exit(f"net bench: fair-share violated: {rows[0]['params']}")
print(f"net bench: fair-share ok (ratio {rows[0]['params']['ratio']})", file=sys.stderr)
rows = [r for r in doc["results"] if r["name"] == "net_pipeline_speedup"]
if not rows:
    sys.exit("net bench: no pipeline speedup row")
if rows[0]["params"]["pipeline_ok"] != "true":
    sys.exit(f"net bench: pipeline speedup below budget: {rows[0]['params']}")
print(f"net bench: pipelining ok (depth-16 speedup {rows[0]['params']['speedup']}x)",
      file=sys.stderr)
EOF

echo "make_bench_json: fig14 (distributed remote + cluster reuse)..." >&2
"$BUILD/bench/bench_fig14_distributed_remote" --json-out "$TMP/fig14.json" >/dev/null
python3 - "$TMP/fig14.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = [r for r in doc["results"] if r["name"] == "fig14_cluster_reuse"]
if not rows:
    sys.exit("fig14 bench: no cluster reuse row")
p = rows[0]["params"]
if p["cluster_ok"] != "true":
    sys.exit(f"fig14 bench: cluster reuse below 1.5x: {p}")
print(f"fig14 bench: cluster reuse ok (WAN traffic cut {p['ratio']}x, "
      f"{p['solo_wan_bytes']} -> {p['cluster_wan_bytes']} bytes)", file=sys.stderr)
EOF

echo "make_bench_json: tracing overhead (fig11 --smoke, on vs off x$OVERHEAD_RUNS)..." >&2
for i in $(seq 1 "$OVERHEAD_RUNS"); do
  "$BUILD/bench/bench_fig11_single_task" --smoke --json-out "$TMP/on_$i.json" >/dev/null
  "$BUILD/bench/bench_fig11_single_task" --smoke --no-trace \
      --json-out "$TMP/off_$i.json" >/dev/null
done

python3 - "$TMP" "$OVERHEAD_RUNS" >"$TMP/overhead.json" <<'EOF'
import json, sys

tmp, runs = sys.argv[1], int(sys.argv[2])

def sand_avg_iter_ms(path):
    """Mean avg_iteration_ms over the sand-pipeline rows of one run."""
    with open(path) as f:
        doc = json.load(f)
    rows = [r for r in doc["results"] if r["params"].get("pipeline") == "sand"]
    if not rows:
        raise SystemExit(f"{path}: no sand rows")
    return sum(r["avg_iteration_ms"] for r in rows) / len(rows)

on = min(sand_avg_iter_ms(f"{tmp}/on_{i}.json") for i in range(1, runs + 1))
off = min(sand_avg_iter_ms(f"{tmp}/off_{i}.json") for i in range(1, runs + 1))
overhead_pct = (on - off) / off * 100.0 if off > 0 else 0.0
json.dump({
    "bench": "trace_overhead",
    "metric": "fig11 smoke sand-pipeline avg iteration ms, min of runs",
    "runs_per_config": runs,
    "tracing_on_ms": round(on, 4),
    "tracing_off_ms": round(off, 4),
    "overhead_pct": round(overhead_pct, 3),
    "budget_pct": 3.0,
    "within_budget": overhead_pct < 3.0,
}, sys.stdout, indent=2)
print()
EOF

{
  printf '[\n'
  cat "$TMP/fig11.json"
  printf ',\n'
  cat "$TMP/fig17.json"
  printf ',\n'
  cat "$TMP/micro.json"
  printf ',\n'
  cat "$TMP/net.json"
  printf ',\n'
  cat "$TMP/fig14.json"
  printf ',\n'
  cat "$TMP/overhead.json"
  printf ']\n'
} >"$OUT"
echo "make_bench_json: wrote $OUT" >&2
