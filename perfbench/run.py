#!/usr/bin/env python3
"""Data-path benchmark entry point.

Builds datapath_bench from the sources of the checkout it runs in, runs
one workload in its own process, checks the result, and prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload warm_remote --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The line before the result is a diagnostics object (host
steal, context switches, the window's work counts, errors). The build goes
to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); per-seed
work counts and traced spans are kept there too.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 170.0  # the whole run, build excluded, must end before 180 s


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def child_env(out_dir):
    """Keeps the compiler's and the benchmark's temporary files in out_dir."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out_dir):
    """Configures and builds the benchmark binary; build output goes to stderr."""
    configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_cmd = ["cmake", "--build", out_dir, "--target", "datapath_bench", "-j", "4"]
    for step, command in (("configure", configure), ("build", compile_cmd)):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env(out_dir)).returncode != 0:
            fail(step + " failed")
    return os.path.join(out_dir, "datapath_bench")


def metric_names(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_work_repeats(out_dir, binary, report):
    """Work counts of one seed must repeat exactly across runs of one build.

    The first run of a (workload, seed) records its checked counts; later
    runs of the same binary must match them. Returns a list of errors.
    """
    work = {k: v["value"] for k, v in report["work"].items() if v["checked"]}
    key = "%s-%d" % (report["workload"], report["seed"])
    path = os.path.join(out_dir, "work", key + ".json")
    current = {"binary": file_digest(binary), "work": work}
    try:
        with open(path) as f:
            recorded = json.load(f)
    except (OSError, ValueError):
        recorded = None
    if recorded is None or recorded.get("binary") != current["binary"]:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(current, f)
        os.replace(path + ".tmp", path)
        return []
    return ["work count %s = %s, an earlier run of seed %d did %s"
            % (name, work.get(name), report["seed"], value)
            for name, value in recorded["work"].items() if work.get(name) != value]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = metric_names(args.trace == 1)
    out_dir = build_dir()
    binary = build(out_dir)

    run_dir = os.path.join(out_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    trace_out = os.path.join(run_dir, "spans-%s-%d.tsv" % (args.workload, args.seed))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out", trace_out if args.trace else ""]
    started = time.monotonic()
    try:
        # The binary's unix sockets live in its working directory.
        proc = subprocess.run(command, cwd=run_dir, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=child_env(out_dir), timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %.0f s" % TIME_LIMIT_S)
    if proc.returncode != 0:
        fail("benchmark binary exited with %d" % proc.returncode)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        fail("benchmark binary printed nothing")
    report = json.loads(lines[-1])

    errors = list(report["errors"]) + check_work_repeats(out_dir, binary, report)
    metrics = {}
    for name in names:
        value = report["metrics"].get(name)
        if value is None or not math.isfinite(value["value"]):
            errors.append("metric %s missing or not finite" % name)
            continue
        metrics[name] = {"value": value["value"], "unit": value["unit"]}
    correct = report["correct"] and not errors

    diagnostics = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "run_s": round(time.monotonic() - started, 3), "errors": errors,
                   "work_per_unit": {k: v["value"] for k, v in report["work"].items()},
                   "diagnostics": report["diagnostics"]}
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
