"""Steadiness check: run each workload over several seeds and summarise.

    python3 perfbench/steady.py --workloads inter150,baselines150 --seeds 1-10

Runs ``run.py`` once per (workload, seed), one after the other, and
prints for every metric its median, first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile
spread as a share of the median, next to the bound ``BENCHMARK.json``
sets for it.  A spread under a third of its bound is marked ``ok``.  It
also prints each workload's share of failed operations, which must be
the same in every run.  ``--out`` keeps every run's JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    config_path = os.path.join(ROOT, "BENCHMARK.json")
    config = {}
    if os.path.exists(config_path):
        with open(config_path, encoding="ascii") as stream:
            config = json.load(stream)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config.get("workloads", [])))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=config.get("run_seconds", 30))
    parser.add_argument("--out", help="append every run's JSON result to this file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config.get("end_to_end", [])}

    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            process = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if process.returncode != 0:
                sys.stderr.write(process.stderr)
                return 1
            result = json.loads(process.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            if args.out:
                with open(args.out, "a", encoding="ascii") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        share_values = {f / a for f, a in shares}
        print(f"{workload}: failed share {'steady' if len(share_values) == 1 else 'VARIES'} "
              f"({', '.join(f'{f}/{a}' for f, a in shares)})")
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.3f}  " + ("ok" if stats["spread"] < bound / 3 else "WIDE")
            print(f"  {name:<26} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
