#!/usr/bin/env python3
"""End-to-end solve and serve benchmark: build, run one workload, report.

Usage, from the repository root:

    python3 e2ebench/run.py --workload batch_large --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --self-test

The first call configures and builds e2ebench/ (and the pobp libraries from
src/) into .bench_build/e2ebench with an optimized configuration; later
calls rebuild only what changed.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones.  With --trace 1 the run first measures
the workload untraced for half of --seconds (the reference for
trace.overhead_share), then runs the traced binary, which prints the
per-layer metrics and writes a Chrome trace next to the build.

Any failed check, refused environment or build error exits non-zero without
a result line.  README.md in this directory describes the workloads.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("batch_large", "serve_small", "serve_dup")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def quiet(cmd, timeout):
    """Runs a build step; shows its output only when it fails."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        fail("failed: " + " ".join(cmd))


def build(tests=False):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pobp source tree beside e2ebench/ (src/CMakeLists.txt "
             "missing); run from a full checkout")
    quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
           "-DE2E_TESTS=" + ("ON" if tests else "OFF")], 300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    targets = ["pobp_e2e", "pobp_e2e_traced"]
    if tests:
        targets.append("e2e_logic_tests")
    quiet(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets, 880)


def harness(binary, argv):
    """Runs one harness process; returns (exit code, stdout lines)."""
    cmd = [os.path.join(BUILD, binary)] + argv
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, proc.stdout.splitlines()


def result_of(code, lines):
    """The harness's JSON result line, checked; exits on any failure."""
    if code != 0 or not lines:
        fail("harness exited with %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    if result.get("correct") is not True:
        fail("harness reported incorrect output")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness logic tests")
    args = parser.parse_args()

    if args.self_test:
        build(tests=True)
        code = subprocess.call([os.path.join(BUILD, "e2e_logic_tests")])
        sys.exit(code)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        code, lines = harness("pobp_e2e",
                              base + ["--seconds", repr(args.seconds)])
        result_of(code, lines)
        print("\n".join(lines))
        return

    code, lines = harness("pobp_e2e",
                          base + ["--seconds", repr(args.seconds / 2)])
    result_of(code, lines)
    basis = [line.split("=", 1)[1] for line in lines
             if line.startswith("e2ebench: trace_overhead_basis=")]
    if not basis:
        fail("untraced run printed no trace_overhead_basis line")
    reference = float(basis[-1])
    print("\n".join(line for line in lines[:-1]))
    trace_file = os.path.join(
        BUILD, "trace_%s_%d.json" % (args.workload, args.seed))
    code, lines = harness("pobp_e2e_traced", base + [
        "--seconds", repr(args.seconds), "--trace", "1",
        "--trace-out", trace_file, "--ref-cpu-us-per-job", repr(reference)])
    result_of(code, lines)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
