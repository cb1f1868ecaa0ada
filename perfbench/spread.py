"""Run a workload over several seeds and compare each metric's spread to its bound.

Usage::

    python3 perfbench/spread.py --workload serve-mixed --seeds 0 1 2 3 4

Each run is a fresh ``run.py`` process. The spread is the inter-quartile
distance of a metric's values as a share of their median (Python's
``statistics.quantiles(values, n=4)``); the bound is the one
``BENCHMARK.json`` fixes. A steady benchmark keeps every spread below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from stats import quartile_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: Dict[str, List[float]] = {}
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=600,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {completed.returncode} correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) < 2 or args.trace:
        return 0
    print(f"{'metric':<16}{'median':>14}{'spread':>10}{'bound':>8}{'bound/3':>9}")
    for metric in spec["end_to_end"]:
        series = values.get(metric["name"], [])
        if len(series) < 2:
            continue
        spread = quartile_spread(series)
        flag = "" if spread < metric["bound"] / 3 else "  <-- wide"
        print(f"{metric['name']:<16}{statistics.median(series):>14.6g}{spread:>10.4f}"
              f"{metric['bound']:>8.3f}{metric['bound'] / 3:>9.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
