#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

    python3 bench/spread.py --workload search --runs 10 --seconds 25 [--first-seed 0]

Runs ``bench/run.py`` once per seed, one after another, and prints for each
metric the median of the runs and the quartile spread (Q3 - Q1) / median,
with quartiles from statistics.quantiles(values, n=4).  A benchmark is
steady when every end-to-end spread but setup_s's is below a third of the
metric's bound in BENCHMARK.json.  Also prints failed / attempted per run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args(argv)
    bounds = {}
    spec_path = BENCH.parent / "BENCHMARK.json"
    if spec_path.is_file():
        bounds = {m["name"]: m.get("bound") for m in json.loads(spec_path.read_text())["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} failed/attempted="
              f"{res['failed']}/{res['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    if len(runs) < 2:
        return 0
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        mid = stats.median(values)
        spread = stats.quartile_spread(values) if mid else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else (
            f"  bound {bound:g}, third {bound / 3:.3%}" +
            ("" if name == "setup_s" or spread < bound / 3 else "  TOO WIDE"))
        print(f"{name:32s} median {mid:<12.6g} spread {spread:7.3%}{flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
