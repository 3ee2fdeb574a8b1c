"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 0              # every workload once
    python3 perfbench/spread.py --workload chaos --seeds 1-10
    python3 perfbench/spread.py --workload saturation --seeds 1,2,3 --seconds 10

Each workload and seed is one sequential ``run.py`` invocation.  For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread — the
distance between the quartiles as a share of the median — next to the
metric's bound in ``BENCHMARK.json``.  ``!`` marks a spread above a
third of the bound, ``!!`` one above the bound.  The summary, with every
run's values, is written to ``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def measure(workload: str, seeds: List[int], seconds: int,
            listed: List[dict]) -> bool:
    """Run ``workload`` once per seed, print and store its spreads;
    returns whether every run was correct."""
    runs = []
    for seed in seeds:
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-4000:], file=sys.stderr)
            return False
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **summary})
        print(f"{workload} seed {seed}: correct={summary['correct']} "
              f"attempted={summary['attempted']} failed={summary['failed']} "
              f"wall_s={summary['metrics']['wall_s']['value']}",
              flush=True)

    rows = {}
    width = max(len(m["name"]) for m in listed)
    print(f"{'metric':<{width}}  {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for m in listed:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else (values[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        bound = m["bound"]
        flag = "!!" if spread > bound else ("!" if spread > bound / 3 else "")
        rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                           "spread": spread, "bound": bound, "values": values}
        print(f"{m['name']:<{width}}  {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>7.3f} {bound:>6} {flag}")
    out_dir = ROOT / ".perfbench"
    os.makedirs(out_dir, exist_ok=True)
    out = out_dir / f"spread-{workload}.json"
    with open(out, "w") as f:
        json.dump({"workload": workload, "seconds": seconds,
                   "runs": runs, "metrics": rows}, f, indent=2)
    print(f"written: {out}")
    return all(r["correct"] for r in runs)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="a workload name, a comma-separated list, or all")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    listed = spec["end_to_end"]
    workloads = (
        [w["name"] for w in spec["workloads"]]
        if args.workload == "all"
        else args.workload.split(",")
    )
    seeds = parse_seeds(args.seeds)
    ok = [measure(w, seeds, seconds, listed) for w in workloads]
    return 0 if all(ok) else 1

if __name__ == "__main__":
    sys.exit(main())
