#!/usr/bin/env python3
"""Build and run the mpinetsim host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload nas_tab2 --seed 1 --seconds 30 --trace 0

The script builds the simulator libraries and the `mnsbench` program from
source into .bench_build/ (CMake, Release), measures process start-up,
runs the workload, and passes mnsbench's output through. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 1` mnsbench also
writes its spans and per-cell counters to .bench_build/trace/.

Workloads (see mnsbench.cpp for the menus they draw from):
  nas_tab2    Table 2 class-B skeleton runs, one thread
  microbench  the paper's micro-benchmark kernels, one thread
  s3d64_k4    64-node Sweep3D on 4 partitions under transient faults

Seeds: 1 is the default; 7919 is held out for checking claims.

Exit status: 0 on success; 1 if any cell failed its correctness check;
2 if the sources are missing or the build or run failed.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = ("nas_tab2", "microbench", "s3d64_k4")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "mnsbench")
TRACE_DIR = os.path.join(".bench_build", "trace")
PROBES = 15
RUN_LIMIT_S = 170  # a run must end within 180 s of its start


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build into .bench_build/; build output goes to stderr."""
    for need in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(need):
            fail("%s not found: run from the root of an mpinetsim checkout" % need)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "mnsbench"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))


def process_init_s():
    """Median time from launching mnsbench to its main() (monotonic)."""
    samples = []
    for _ in range(PROBES):
        t0 = time.monotonic_ns()
        out = subprocess.run([BINARY, "--probe"], capture_output=True, text=True,
                             timeout=30, check=True)
        samples.append((int(out.stdout.split()[0]) - t0) / 1e9)
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    start = time.monotonic()
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--process-init-s=%.9f" % process_init_s()]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd.append("--trace-out=" + os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed)))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_LIMIT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode not in (0, 1):
        fail("mnsbench exited %d" % done.returncode)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
