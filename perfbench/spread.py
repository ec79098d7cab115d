"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --runs 10 --first-seed 100 --seconds 18 [--workloads box,field]

Runs `perfbench/run.py` once per (seed, workload) as separate processes, one
at a time.  Round i uses seed first_seed + i and runs the workloads in the
listed order on even rounds and in reverse order on odd rounds.  For each
metric it prints the median over the runs and the interquartile distance as
a share of that median, with quartiles from statistics.quantiles(n=4), and
it writes every run's result to perfbench/out/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--workloads", default="series,classsum,box,deuring,field")
    ap.add_argument("--label", default="set")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    results: dict[str, list] = {w: [] for w in workloads}
    bad = 0
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            seed = args.first_seed + i
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                bad += 1
                continue
            res = json.loads(lines[-1])
            res["seed"], res["run_s"] = seed, time.perf_counter() - t
            results[w].append(res)
            print(f"{w} seed {seed}: {res['run_s']:.1f} s, attempted {res['attempted']}, failed {res['failed']}",
                  file=sys.stderr, flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.label}.json").write_text(json.dumps(results, indent=1))
    print(f"| workload | metric | median | IQR/median | runs | failed/attempted |")
    print(f"| --- | --- | --- | --- | --- | --- |")
    for w, runs in results.items():
        if len(runs) < 2:
            continue
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
            print(f"| {w} | {name} | {med:.4g} | {(q3 - q1) / med:.2%} | {len(vals)} | {share} |")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
