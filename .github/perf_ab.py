#!/usr/bin/env python3
"""A/B performance gate: is one checkout slower than another on perfbench?

Usage (from anywhere):

    python3 .github/perf_ab.py <base-checkout> <head-checkout>

For each judged workload the script runs PAIRS interleaved pairs of
`python3 perfbench/run.py --workload <w> --seed <pair> --seconds <s>
--trace 0`, one run in each checkout, with the same seed within a pair
and alternating which side runs first. Each checkout builds into its own
`.bench_build/` (CARGO_TARGET_DIR is cleared for the runs).

A pair counts as a regression when head is worse than base by more than
THRESHOLD on the workload's judged metric, measured as a slowdown factor
(base/head for a rate, head/base for a latency). The gate fails when a
majority of a workload's pairs regress, or when any run does not report
`"correct": true` (perfbench sets it only with zero failed operations).
Exit code 0 passes, 1 fails, 2 is a usage error.
"""

import json
import os
import subprocess
import sys

# Measured on a 2-vCPU shared VM: between two identical builds a 10 s
# figure-cold pair reads a slowdown of 0.71-1.36 (quartiles 0.96-1.07),
# so one pair cannot resolve a 15-20% slowdown and the verdict rests on
# a majority of 7. serve-loopback's p50 is set by the server's poll
# tick and moves under 3% between runs, so short runs suffice there.
PAIRS = 7
THRESHOLD = 0.10

# (workload, judged end-to-end metric, which direction is better, seconds per run)
WORKLOADS = (
    ("figure-cold", "events_per_s", "higher", 10),
    ("serve-loopback", "sweep_latency_p50_ms", "lower", 3),
)


def run(tree, workload, seed, seconds):
    """One perfbench run in `tree`; returns its result object, or None."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perf_ab: {tree}: {workload} exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perf_ab: {tree}: {workload} printed no result line", file=sys.stderr)
        return None


def main(argv):
    if len(argv) != 3:
        print("usage: perf_ab.py <base-checkout> <head-checkout>", file=sys.stderr)
        return 2
    base, head = (os.path.abspath(p) for p in argv[1:])
    print(f"perf_ab: {PAIRS} pairs per workload, threshold {THRESHOLD:.0%}")
    ok = True
    for workload, metric, better, seconds in WORKLOADS:
        worse = 0
        for pair in range(PAIRS):
            seed = pair + 1
            sides = [("base", base), ("head", head)]
            if pair % 2:
                sides.reverse()
            results = {name: run(tree, workload, seed, seconds) for name, tree in sides}
            for name, result in results.items():
                if not result or result.get("correct") is not True:
                    print(f"perf_ab: {workload} seed {seed}: {name} run is not correct")
                    ok = False
            if not all(results.values()):
                continue
            b = results["base"]["metrics"][metric]["value"]
            h = results["head"]["metrics"][metric]["value"]
            slowdown = b / h if better == "higher" else h / b
            regressed = slowdown > 1 + THRESHOLD
            worse += regressed
            print(
                f"perf_ab: {workload} pair {pair + 1} seed {seed} ({sides[0][0]} first): "
                f"{metric} base {b:.6g} head {h:.6g} slowdown {slowdown:.3f}"
                + (" REGRESSED" if regressed else "")
            )
        verdict = "FAIL" if worse > PAIRS // 2 else "pass"
        print(f"perf_ab: {workload}: {worse}/{PAIRS} pairs regressed: {verdict}")
        ok = ok and verdict == "pass"
    print("perf_ab: PASS" if ok else "perf_ab: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
