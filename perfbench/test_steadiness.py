#!/usr/bin/env python3
"""Steadiness and environment-pinning self-test of the benchmark.

    python3 perfbench/test_steadiness.py [--runs N] [--seed S]
        [--workloads w1,w2] [--env-check] [--dump FILE]

Run from the root of a checkout. Repeats each workload N times (10 by
default: the quartiles of fewer runs are too noisy for host metrics that
spread by ~10%; ten runs of all three workloads take ~17 minutes), each
time with another seed (S, S+1, ...; workloads interleaved so drift hits
them alike), and requires every run to pass its correctness checks.
For each end-to-end metric it prints the median and the interquartile
spread as a share of the median, and fails when a spread exceeds the
metric's bound in BENCHMARK.json. --dump writes every run's metrics and
wall time as JSON.

--env-check also runs each workload twice on one seed, once with
ASTRA_FAULTS, ASTRA_SIM_AUTOBOOST, ASTRA_PLAN_STORE and ASTRA_TRACE set,
and requires the simulated metrics and every winner's config FNV to be
identical: the benchmark pins all of them in its options.
"""

import argparse
import json
import time
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The default seed; 1001 is the held-out seed (see perfbench/README.md).
DEFAULT_SEED = 1

# Metrics that come from the simulated device clock: a pure function
# of the workload and seed, so the environment may not move them.
SIMULATED = ("wire_minibatches", "plan_speedup", "serve_p50_ms",
             "serve_p99_ms", "goodput_rps", "serve_max_rps")

POLLUTED_ENV = {
    "ASTRA_FAULTS": "seed=5;kernel:p=0.005;alloc:at=0",
    "ASTRA_SIM_AUTOBOOST": "1",
    "ASTRA_PLAN_STORE": str(ROOT / ".bench_build" / "env-check-store"),
    "ASTRA_TRACE": "1",
}


def run_once(workload, seed, seconds, env=None):
    """One benchmark run; returns (result dict, winner FNV lines)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         env=env)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {res.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(res.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: correctness checks failed")
    fnvs = [ln for ln in lines if ln.startswith("winner ")]
    return result, [" ".join(ln.split()[:4]) for ln in fnvs]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def steadiness(args, workloads):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    samples = {w: {} for w in workloads}
    runs = []
    for i in range(args.runs):
        for w in workloads:
            t0 = time.monotonic()
            result, _ = run_once(w, args.seed + i, args.seconds)
            wall = time.monotonic() - t0
            runs.append({"workload": w, "seed": args.seed + i,
                         "wall_s": wall, "result": result})
            for name, m in result["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
            print(f"  {w} seed {args.seed + i}: ok ({wall:.1f} s)",
                  flush=True)
    if args.dump:
        pathlib.Path(args.dump).write_text(json.dumps(runs, indent=1))
    ok = True
    for w in workloads:
        print(f"\n{w} ({args.runs} runs)")
        missing = set(bounds) - set(samples[w])
        if missing:
            print(f"  FAIL: metrics missing: {sorted(missing)}")
            ok = False
        for name in sorted(samples[w]):
            med, s = spread(samples[w][name])
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "ok" if s <= bound else "FAIL")
            ok &= verdict != "FAIL"
            print(f"  {name:20s} median {med:14.6g}  spread {s:7.4f}  "
                  f"bound {bound}  {verdict}")
    return ok


def env_check(args, workloads):
    ok = True
    polluted = dict(os.environ, **POLLUTED_ENV)
    for w in workloads:
        clean, clean_fnv = run_once(w, args.seed, args.seconds)
        dirty, dirty_fnv = run_once(w, args.seed, args.seconds, polluted)
        same = clean_fnv == dirty_fnv and all(
            clean["metrics"][m]["value"] == dirty["metrics"][m]["value"]
            for m in SIMULATED)
        print(f"  env-check {w}: {'ok' if same else 'FAIL'}")
        ok &= same
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--env-check", action="store_true")
    ap.add_argument("--dump", help="write every run's result here")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    ok = steadiness(args, workloads) if args.runs >= 2 else True
    if args.env_check:
        ok &= env_check(args, workloads)
    print("\nsteadiness self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
