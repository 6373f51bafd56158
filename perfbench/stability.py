"""Stability check: run a workload over several seeds and report the spread.

    python3 perfbench/stability.py --workload eval-masks --seeds 10
    python3 perfbench/stability.py --workload all --seeds 10 --first-seed 100

For each end-to-end metric this prints the ten values, their median and the
interquartile range (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json. A benchmark is steady
when every spread stays below a third of its bound. Each run measures
BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in BENCHMARK["workloads"]] if args.workload == "all" else [args.workload]
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            line = run(workload, seed)
            failed += line["failed"]
            attempted += line["attempted"]
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={m['value']:.6g}" for k, m in line["metrics"].items()), flush=True)
        print(f"{workload}: failed {failed}/{attempted}")
        for metric in BENCHMARK["end_to_end"]:
            vals = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"  {metric['name']:<14} median {median:.6g} {metric['unit']:<4} spread {spread:.4f}"
                  f" bound {metric['bound']}  {'ok' if ok else 'UNSTEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
