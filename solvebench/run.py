#!/usr/bin/env python3
"""End-to-end solve benchmark entry point.

Run from the repository root:

    python3 solvebench/run.py --workload cg-ic0 --seed 1 --seconds 40 --trace 0
    python3 solvebench/run.py --selftest

Builds the benchmark (solvebench/CMakeLists.txt, which compiles the
program from src/) into $CARGO_TARGET_DIR or .bench_build, then runs the
solvebench program. It prints every metric it measured, one per line, and as
its last line the JSON result with exactly the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). Build
output goes to stderr. Exits non-zero when the build fails, an answer
check fails or the program sources are missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def work_dir():
    """Scratch space for inputs and the service socket; relative to the
    root when possible, since a Unix socket path must stay short."""
    d = os.path.relpath(os.path.join(build_dir(), "work"), ROOT)
    return d if not d.startswith("..") else os.path.join(build_dir(), "work")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("solvebench: no program sources (src/CMakeLists.txt) in " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def configure():
        return subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    def compile_all():
        return subprocess.run(["cmake", "--build", out, "-j", jobs],
                              stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if os.path.isfile(os.path.join(out, "CMakeCache.txt")) and compile_all():
        return out
    # No build yet, or one left by another checkout: start clean.
    shutil.rmtree(out, ignore_errors=True)
    if not configure() or not compile_all():
        sys.exit("solvebench: build failed")
    return out


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own unit tests and exit")
    args = p.parse_args()

    out = build(os.path.join(build_dir(), "solvebench"))
    if args.selftest:
        return subprocess.run([os.path.join(out, "solvebench_selftest")]).returncode
    if not args.workload:
        p.error("--workload is required")
    # The self-tests are cheap; a broken statistic fails the run.
    st = subprocess.run([os.path.join(out, "solvebench_selftest")],
                        stdout=sys.stderr, stderr=sys.stderr)
    if st.returncode != 0:
        sys.exit("solvebench: self-tests failed")
    cmd = [os.path.join(out, "solvebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--metrics", ",".join(metric_names(args.trace)),
           "--work-dir", work_dir()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("solvebench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
