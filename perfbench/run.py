#!/usr/bin/env python3
"""Build and run the rfipc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
rfipc libraries, rfipcd and the perfbench program from source into
.bench_build/ (a later run only rebuilds what changed), then runs one
workload. The program's last stdout line is the JSON result; build output
goes to stderr. Exits non-zero, without a result, when the sources are
missing or the build fails.

Workloads: inproc-uniform, capture-skewed, wire-updates, inproc-large-n.
--small and --corrupt-reference are for perfbench/selftest.py.
"""
import argparse
import ctypes
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("inproc-uniform", "capture-skewed", "wire-updates", "inproc-large-n")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in (ROOT / "src" / "CMakeLists.txt", ROOT / "examples" / "rfipcd.cpp"):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} is missing; run from an rfipc checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench", "rfipcd"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def die_with_parent():
    # PR_SET_PDEATHSIG: perfbench (and the rfipcd it starts, which does
    # the same) ends if this process is killed.
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()

    build()
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--bin-dir", str(BUILD),
           "--run-dir", str(ROOT / ".bench_build" / "run" / args.workload)]
    if args.small:
        cmd.append("--small")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=170, preexec_fn=die_with_parent).returncode
    except subprocess.TimeoutExpired:
        fail("the run did not finish within 170 s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
