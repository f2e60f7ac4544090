#!/usr/bin/env bash
# One-command verification: configure + build the default tree, run the
# full ctest suite and the smokes, rerun the pixel kernels' tests in a
# SAND_NATIVE_ARCH=ON tree, then run the ThreadSanitizer suite
# (tools/check_tsan.sh) and the AddressSanitizer + UndefinedBehaviorSanitizer
# pass over the demand path, the decoders and the op worker's socket, each
# in its own build tree. This is the tier-1 gate plus the
# concurrency/lifetime gates.
#
# Usage: tools/check_build.sh
#   BUILD_DIR         override the default build tree (default: build)
#   NATIVE_BUILD_DIR  override the -march=native tree (default: build-native)
#   SKIP_TSAN=1       skip the ThreadSanitizer suite
#   SKIP_ASAN=1       skip the AddressSanitizer + UBSan suite
#   MAKE_BENCH_JSON=1 also regenerate BENCH_PR10.json (slow: full benches
#                     plus the tracing-overhead comparison)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}

echo "==== configure + build ($BUILD_DIR) ===="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "==== ctest ===="
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)")

echo "==== kernel smoke (bench_micro_kernels --smoke) ===="
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_micro_kernels
"$BUILD_DIR/bench/bench_micro_kernels" --smoke

echo "==== native-arch kernels (SAND_NATIVE_ARCH=ON: tensor_test + kernel smoke) ===="
# The project builds with -ffp-contract=off, so -march=native may not fuse
# double math into FMA. tensor_test's recorded-digest case fails if this
# tree's bytes differ from the default build's.
NATIVE_BUILD_DIR=${NATIVE_BUILD_DIR:-build-native}
cmake -B "$NATIVE_BUILD_DIR" -S . -DSAND_NATIVE_ARCH=ON
cmake --build "$NATIVE_BUILD_DIR" -j"$(nproc)" --target tensor_test bench_micro_kernels
"$NATIVE_BUILD_DIR/tests/tensor_test"
"$NATIVE_BUILD_DIR/bench/bench_micro_kernels" --smoke

echo "==== lossless decoder smoke (bench_micro_compress --smoke) ===="
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_micro_compress
"$BUILD_DIR/bench/bench_micro_compress" --smoke

echo "==== codec smoke (bench_fig17_storage_pruning --smoke) ===="
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_fig17_storage_pruning
"$BUILD_DIR/bench/bench_fig17_storage_pruning" --smoke

echo "==== trace smoke (bench_fig11_single_task --smoke, /.sand/trace gate) ===="
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_fig11_single_task
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
"$BUILD_DIR/bench/bench_fig11_single_task" --smoke \
    --trace-out "$TRACE_TMP/trace.json" >/dev/null
# The gate: the dump must parse as JSON and contain at least one
# connected request flame — >=4 spans sharing a trace id across >=2
# threads, every non-root span's parent recorded in the same trace.
python3 - "$TRACE_TMP/trace.json" <<'EOF'
import collections, json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)  # gate 1: valid JSON
by_trace = collections.defaultdict(list)
for e in doc["traceEvents"]:
    if e.get("ph") == "X" and "args" in e:
        by_trace[e["args"]["trace"]].append(e)
connected = 0
for evs in by_trace.values():
    if len(evs) < 4 or len({e["tid"] for e in evs}) < 2:
        continue
    spans = {e["args"]["span"] for e in evs}
    roots = sum(1 for e in evs if e["args"]["parent"] == 0)
    if roots == 1 and all(
        e["args"]["parent"] in spans for e in evs if e["args"]["parent"] != 0
    ):
        connected += 1
if connected < 1:
    sys.exit(f"trace gate: no connected multi-thread flame in {len(by_trace)} traces")
print(f"trace gate: {connected} connected flames across {len(by_trace)} traces")
EOF

echo "==== serving smoke (sand_server + 2 remote_trainer tenants) ===="
cmake --build "$BUILD_DIR" -j"$(nproc)" --target sand_server remote_trainer sand_stat
SERVE_TMP="$(mktemp -d)"
SOCK="$SERVE_TMP/sand.sock"
"$BUILD_DIR/tools/sand_server" --socket "$SOCK" --tenant alpha:2:64 \
    > "$SERVE_TMP/server.log" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true; rm -rf "$TRACE_TMP" "$SERVE_TMP"' EXIT
for _ in $(seq 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { cat "$SERVE_TMP/server.log"; echo "serving gate: server did not come up" >&2; exit 1; }
# Two tenants train concurrently over the same socket — one serial, one
# with a pipelined read-ahead window (the v2 wire protocol under load)...
"$BUILD_DIR/examples/remote_trainer" --socket "$SOCK" --tenant alpha >/dev/null &
TRAINER_A=$!
"$BUILD_DIR/examples/remote_trainer" --socket "$SOCK" --tenant beta --depth 4 \
    > "$SERVE_TMP/trainer_b.log" &
TRAINER_B=$!
wait "$TRAINER_A"
wait "$TRAINER_B"
grep -q 'protocol v2, depth 4' "$SERVE_TMP/trainer_b.log" \
    || { cat "$SERVE_TMP/trainer_b.log"; echo "serving gate: pipelined trainer did not negotiate v2" >&2; exit 1; }
# ...and the gate: the control tree, read over the same wire, must show
# both tenants with served requests.
"$BUILD_DIR/tools/sand_stat" --remote "$SOCK" --tenants | tee "$SERVE_TMP/tenants.txt"
grep -q '^alpha ' "$SERVE_TMP/tenants.txt" && grep -q '^beta ' "$SERVE_TMP/tenants.txt" \
    || { echo "serving gate: missing tenant rows" >&2; exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
grep -q 'shutting down' "$SERVE_TMP/server.log" \
    || { cat "$SERVE_TMP/server.log"; echo "serving gate: no clean shutdown" >&2; exit 1; }
echo "serving gate: 2 tenants served + clean shutdown"

echo "==== cluster smoke (3 sharded store nodes + peer reuse + node kill) ===="
CLUSTER_TMP="$(mktemp -d)"
CL_PIDS=()
trap 'kill "$SERVER_PID" "${CL_PIDS[@]}" 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$TRACE_TMP" "$SERVE_TMP" "$CLUSTER_TMP"' EXIT
CL_PEERS=(--peer "$CLUSTER_TMP/n0.sock" --peer "$CLUSTER_TMP/n1.sock" --peer "$CLUSTER_TMP/n2.sock")
for n in 0 1 2; do
  "$BUILD_DIR/tools/sand_server" --socket "$CLUSTER_TMP/n$n.sock" \
      "${CL_PEERS[@]}" --self "$n" > "$CLUSTER_TMP/n$n.log" 2>&1 &
  CL_PIDS+=($!)
done
for n in 0 1 2; do
  for _ in $(seq 50); do [ -S "$CLUSTER_TMP/n$n.sock" ] && break; sleep 0.1; done
  [ -S "$CLUSTER_TMP/n$n.sock" ] \
      || { cat "$CLUSTER_TMP/n$n.log"; echo "cluster gate: node $n did not come up" >&2; exit 1; }
done
# A trainer against node 1: across the cluster, at least one view some
# node computed must be pulled over the ring instead of recomputed.
# (peer_hits is per-process, so sum all three nodes: which node wins the
# race to compute a view first is timing-dependent.)
"$BUILD_DIR/examples/remote_trainer" --socket "$CLUSTER_TMP/n1.sock" --tenant alpha \
    --epochs 2 > "$CLUSTER_TMP/trainer1.log" 2>&1 \
    || { cat "$CLUSTER_TMP/trainer1.log"; echo "cluster gate: trainer failed" >&2; exit 1; }
for n in 0 1 2; do
  "$BUILD_DIR/tools/sand_stat" --cat /.sand/cluster --remote "$CLUSTER_TMP/n$n.sock" \
      2>/dev/null > "$CLUSTER_TMP/cluster$n.json"
done
python3 - "$CLUSTER_TMP"/cluster0.json "$CLUSTER_TMP"/cluster1.json "$CLUSTER_TMP"/cluster2.json <<'EOF'
import json, sys
hits = bytes_reused = misses = 0
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    hits += doc["peer_hits"]
    misses += doc["peer_misses"]
    bytes_reused += doc["peer_bytes"]
if hits < 1:
    sys.exit(f"cluster gate: no peer hits anywhere (misses {misses}) — reuse never happened")
print(f"cluster gate: {hits} peer hits, {bytes_reused} bytes reused across 3 nodes")
EOF
# Kill one node: the ring degrades its shard to local recompute and the
# job must still complete.
kill -9 "${CL_PIDS[2]}" 2>/dev/null || true
"$BUILD_DIR/examples/remote_trainer" --socket "$CLUSTER_TMP/n1.sock" --tenant alpha \
    --epochs 4 > "$CLUSTER_TMP/trainer2.log" 2>&1 \
    || { cat "$CLUSTER_TMP/trainer2.log"; echo "cluster gate: trainer failed after node kill" >&2; exit 1; }
grep -q 'trained on' "$CLUSTER_TMP/trainer2.log" \
    || { cat "$CLUSTER_TMP/trainer2.log"; echo "cluster gate: no training output after node kill" >&2; exit 1; }
kill -TERM "${CL_PIDS[0]}" "${CL_PIDS[1]}" 2>/dev/null || true
wait "${CL_PIDS[0]}" "${CL_PIDS[1]}" 2>/dev/null || true
echo "cluster gate: peer reuse observed + node-kill survived"

if [ "${MAKE_BENCH_JSON:-0}" = "1" ]; then
  echo "==== bench report (tools/make_bench_json.sh -> BENCH_PR10.json) ===="
  tools/make_bench_json.sh "$BUILD_DIR" BENCH_PR10.json
fi

if [ "${SKIP_TSAN:-0}" != "1" ]; then
  echo "==== tsan suite ===="
  tools/check_tsan.sh
fi

if [ "${SKIP_ASAN:-0}" != "1" ]; then
  echo "==== asan suite ===="
  ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}
  ASAN_TESTS=(common_test vfs_test core_test codec_test fault_injection_test
              compress_test compress_tier_test net_test cluster_test obs_test
              storage_test object_path_test stress_test tensor_test config_test
              sched_test pruning_test extensions_test trace_context_test
              integration_test)
  # SAND_ASAN also turns on UndefinedBehaviorSanitizer without recovery:
  # any UB report fails the test as an ASan report does.
  cmake -B "$ASAN_BUILD_DIR" -S . -DSAND_ASAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$ASAN_BUILD_DIR" -j"$(nproc)" --target "${ASAN_TESTS[@]}"
  for test in "${ASAN_TESTS[@]}"; do
    echo "==== ASAN+UBSAN: $test ===="
    ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="print_stacktrace=1" \
        "$ASAN_BUILD_DIR/tests/$test"
  done
fi

echo "check_build: all green"
