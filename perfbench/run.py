#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds concealer_server and the load generator
from source into .bench_build/ (the first run compiles the library), then
runs one workload and prints the result JSON as the last stdout line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (and
writes the spans to .bench_build/spans/). A wrong answer, a volume-gate
violation or a failed build exits nonzero.

    python3 perfbench/run.py --self-test

builds and runs the harness's own tests. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("interactive", "analytic", "ingest_restart")
# The driver itself stays well inside the harness's 180 s per run.
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures and builds `targets`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at %s; run from a checkout" % ROOT)
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: %s" % " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build(["concealer_server", "perfbench_driver"])
    workdir = os.path.join(BUILD, "work-%d" % os.getpid())
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [
        os.path.join(BUILD, "perfbench_driver"),
        "--workload=%s" % args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--server=%s" % os.path.join(BUILD, "concealer", "concealer_server"),
        "--workdir=%s" % workdir,
        "--spans=%s" % os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed)),
    ]
    try:
        # The driver's stdout (diagnostics, then the result line) passes
        # straight through; its server children die with it.
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        rc = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
