#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per end-to-end metric,
the spread (interquartile distance over the median) and the exact counts.

    python3 perfbench/steady.py --workload compile_mix --seeds 1-10 [--seconds 30]
    python3 perfbench/steady.py --workload charac_daily --exact-check

`--exact-check` runs one seed twice and a second seed once: the two runs of
one seed must print identical exact counts, and every run must pass the
correctness gate. A run that reports no result is listed and left out of
the spreads. Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))


def run(workload, seed, seconds, trace=0):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    setup = next((l.strip() for l in lines if l.startswith("setup_s = ")), "no set-up line")
    exact = next((l[len("exact "):] for l in lines if l.startswith("exact ")), "")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return out.returncode, result, exact, setup


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--exact-check", action="store_true")
    args = ap.parse_args()

    if args.exact_check:
        first, second, other = (run(args.workload, s, args.seconds) for s in (11, 11, 12))
        for name, (code, result, _, setup) in zip(("seed 11", "seed 11 again", "seed 12"),
                                                  (first, second, other)):
            print(f"{name}: exit {code}, correct {result and result['correct']}; {setup}")
        same = first[2] == second[2]
        print(f"exact counts repeat: {same}\n  {first[2]}\n  {second[2]}")
        ok = same and all(r[0] == 0 and r[1] and r[1]["correct"] for r in (first, second, other))
        sys.exit(0 if ok else 1)

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        code, result, _, setup = run(args.workload, seed, args.seconds)
        if result is None:
            print(f"seed {seed}: exit {code}, no result; {setup}", flush=True)
            continue
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: exit {code} correct {result['correct']} "
              + " ".join(f"{k}={v:.5g}" for k, v in metrics.items()) + f"; {setup}", flush=True)
        for k, v in metrics.items():
            values.setdefault(k, []).append(v)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
        print(f"{name:18} median {med:12.5g}  spread {spread:7.4f}  bound {bounds[name]}{flag}")


if __name__ == "__main__":
    main()
