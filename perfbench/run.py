"""The repository benchmark: three seeded workloads, checked outputs, a ledger.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train-ram --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

A run generates its inputs from ``--seed``, sets the program up, measures for
``--seconds`` and checks the program's outputs. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``. ``--trace 1`` runs the same pass
and then a traced one (``repro.obs`` telemetry on, timing wrappers from
``probes.py`` installed) and reports the per-layer metrics plus a ledger
that sets the layers beside the end-to-end time and prints the residual.
A layer the workload does not exercise reports 0 and is listed as such.
``--workload all`` runs every workload, untraced and traced, each in a
fresh process.

Every workload reports all eight end-to-end metrics; a step is a sweep
(train-ram), an epoch (train-store) or a request (serve-mixed):

* ``setup_s`` — median set-up: Corpus + WarpLDA + bucket build; write_store +
  open_store + ParallelTrainer; service launch to the first 200 of /healthz.
* ``tokens_per_s`` — corpus tokens over the median step; for serving, request
  tokens answered per second in the closed loop.
* ``llh_per_token`` — joint log-likelihood per token after a fixed number of
  steps; for serving, held-out log-likelihood per token under the served θ.
* ``peak_rss_mb`` — ``VmHWM`` of this process, or of the service process.
* ``ok_frac`` — steps that succeeded over steps attempted.
* ``p50_ms``, ``p90_ms`` — step duration; for serving, open-loop latency
  from each request's due time.
* ``ops_per_s`` — steps per second; for serving, closed-loop requests per
  second.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("train-ram", "train-store", "serve-mixed")

_TRAIN = "train-ram, train-store"
#: The end-to-end metric (and workloads) each per-layer metric should move,
#: written down before measuring so a later change can be held to it.
MOVES = {
    "core.sweep_s": f"tokens_per_s @ {_TRAIN}",
    "kernels.word_phase_s": f"tokens_per_s @ {_TRAIN}",
    "kernels.doc_phase_s": f"tokens_per_s @ {_TRAIN}",
    "kernels.draws_s": "tokens_per_s @ train-store (~0 on train-ram)",
    "kernels.pool.utilization.word": "tokens_per_s @ train-ram",
    "kernels.pool.utilization.doc": "tokens_per_s @ train-ram",
    "kernels.pool.straggler_skew.word": "tokens_per_s @ train-ram",
    "kernels.pool.straggler_skew.doc": "tokens_per_s @ train-ram",
    "mh.doc_accept_ratio": f"llh_per_token @ {_TRAIN}",
    "mh.word_accept_ratio": f"llh_per_token @ {_TRAIN}",
    "buckets.build_s": f"setup_s, tokens_per_s @ {_TRAIN}",
    "buckets.fill_ratio": f"setup_s, tokens_per_s @ {_TRAIN}",
    "eval.llh_s": "none (cost of the check)",
    "corpus.store_write_s": "setup_s @ train-store",
    "corpus.store_open_s": "setup_s @ train-store",
    "parallel.start_s": "setup_s @ train-store",
    "parallel.worker_epoch_s": "tokens_per_s @ train-store",
    "parallel.barrier_wait_s": "tokens_per_s @ train-store",
    "parallel.shard_skew_s": "tokens_per_s @ train-store",
    "parallel.merge_s": "tokens_per_s @ train-store",
    "parallel.bytes_per_epoch": "tokens_per_s @ train-store (computed 2*W*V*K*8)",
    "service.request_s": "p50_ms, p90_ms, ops_per_s @ serve-mixed",
    "service.queue_s": "p50_ms, p90_ms, ops_per_s @ serve-mixed",
    "service.worker_task_s": "p50_ms, p90_ms, ops_per_s @ serve-mixed",
    "serving.fold_in_s": "p50_ms, ops_per_s @ serve-mixed",
    "serving.cache_hit_ratio": "p50_ms, ops_per_s @ serve-mixed",
    "service.worker_utilization": "ops_per_s, ok_frac @ serve-mixed",
    "service.rejected": "ops_per_s, ok_frac @ serve-mixed",
    "service.timeouts": "ops_per_s, ok_frac @ serve-mixed",
    "service.errors": "ops_per_s, ok_frac @ serve-mixed",
    "client.late_s": "validity of p50_ms, p90_ms @ serve-mixed",
    "client.late_max_s": "validity of p50_ms, p90_ms @ serve-mixed",
    "client.late_count": "validity of p50_ms, p90_ms @ serve-mixed",
    "ledger.residual_share": "none (cost outside the named layers)",
    "trace.overhead": "none (cost of tracing)",
}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=str(ROOT), timeout=600,
            )
            status = status or completed.returncode
    return status


def _report(workload: str, args: argparse.Namespace, spec: Dict[str, Any],
            result: Dict[str, Any]) -> Dict[str, Any]:
    """Print the human-readable report; return the metrics for the JSON line."""
    print(f"== {workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace} ==")
    end_to_end = result["end_to_end"]
    print("end-to-end (untraced pass):")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name in end_to_end:
            value, unit, count, what = end_to_end[name]
            print(f"  {name:<16}{value:>16.6g} {unit:<9} n={count} {what}")
        else:
            print(f"  {name:<16}{'missing':>16}")
    for note in result.get("notes", []):
        print(f"  {note}")
    print("checks:")
    for name, ok, detail in result["checks"]:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}  ({detail})")

    if not args.trace:
        return {m["name"]: {"value": end_to_end[m["name"]][0], "unit": m["unit"]}
                for m in spec["end_to_end"] if m["name"] in end_to_end}

    print("ledger (traced pass):")
    for line in result["ledger"]:
        print(f"  {line}")
    print("per-layer (traced pass):")
    layers = result["layers"]
    metrics = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        value = layers[name][0] if name in layers else 0.0
        shown = f"{value:>14.6g} {metric['unit']:<6}" if name in layers else \
            f"{'—':>14} {'':<6}"
        print(f"  {name:<34}{shown} moves {MOVES.get(name, '?')}"
              + ("" if name in layers else f"; not exercised by {workload}"))
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-mixed":
            import serve

            result = serve.run(ROOT, args.seed, args.seconds, bool(args.trace), workdir)
        else:
            import train

            result = train.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = _report(args.workload, args, spec, result)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = (
        all(ok for _, ok, _ in result["checks"])
        and len(metrics) == len(wanted)
        and all(math.isfinite(m["value"]) for m in metrics.values())
    )
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
