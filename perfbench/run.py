#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload wire_cold|train_warm|serve_fleet \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library sources under src/
and the benchmark binary (Release, CMake) into .bench_build/perfbench,
then runs one workload. Build output goes to stderr, so the last line
of stdout is the binary's JSON result. Exits non-zero without a result
when the sources are missing or the build fails.
"""

import argparse
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
EXE = BUILD / "astra_perfbench"
WORKLOADS = ("wire_cold", "train_warm", "serve_fleet")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no library sources at src/", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                 stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if res.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} failed", file=sys.stderr)
            return False
    return EXE.is_file()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT)]
    sys.stdout.flush()
    try:
        # Inherit stdout: the binary's last line is the result. run()
        # kills and reaps the child if it overstays its budget.
        res = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
