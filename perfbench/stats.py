"""Pure helpers of the benchmark: percentiles, open-loop lateness, the ledger.

Nothing here imports ``repro`` or starts a process, so ``selftest.py`` can
check every rule in well under a second.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles a report may quote, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)

#: A request sent more than this long after its due time counts as late.
LATE_THRESHOLD_S = 0.001


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order statistics.

    Same rule as ``numpy.percentile``'s default: rank ``q/100 * (n - 1)``
    between the two nearest sorted samples.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


def tail_percentile(count: int, beyond: int = 10) -> Optional[float]:
    """The highest percentile of the ladder with ``beyond`` samples above it.

    A percentile is quotable only when at least ``beyond`` of ``count``
    samples lie past it; ``None`` when even the median has fewer.
    """
    for q in PERCENTILE_LADDER:
        if count * (1.0 - q / 100.0) >= beyond - 1e-9:
            return q
    return None


def open_loop_timings(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> Dict[str, List[float]]:
    """Per-request latency and lateness of an open-loop schedule.

    Latency runs from when the request was *due*, not when it was sent, so a
    stall charges its wait to every request queued behind it. Lateness is
    how far the generator fell behind its schedule (never negative: a
    request is never sent early).
    """
    if not (len(due) == len(sent) == len(done)):
        raise ValueError("due, sent and done must have one entry per request")
    latency = [d - t for t, d in zip(due, done)]
    late = [max(0.0, s - t) for t, s in zip(due, sent)]
    return {"latency": latency, "late": late}


def lateness_summary(late: Sequence[float]) -> Dict[str, float]:
    """Median and max lateness, and how many requests were late at all."""
    if not late:
        return {"median": 0.0, "max": 0.0, "count": 0}
    return {
        "median": statistics.median(late),
        "max": max(late),
        "count": sum(1 for value in late if value > LATE_THRESHOLD_S),
    }


def residual(total: float, parts: Sequence[float]) -> Tuple[float, float]:
    """``total - sum(parts)`` and its share of ``total``."""
    rest = total - sum(parts)
    return rest, (rest / total if total > 0 else 0.0)


def epoch_ledger(
    epochs: Sequence[Tuple[float, Sequence[float], Sequence[float]]]
) -> Dict[str, float]:
    """Sum the parallel trainer's per-epoch ledger.

    Each entry is ``(epoch_s, worker_s per worker, sweep_s per worker)``.
    ``epoch = slowest worker + merge`` defines merge; ``worker = sweep +
    residual`` is summed over every worker of every epoch.
    """
    totals = {"epoch": 0.0, "slowest": 0.0, "merge": 0.0, "worker": 0.0,
              "sweep": 0.0}
    for epoch_s, workers, sweeps in epochs:
        slowest = max(workers)
        totals["epoch"] += epoch_s
        totals["slowest"] += slowest
        totals["merge"] += epoch_s - slowest
        totals["worker"] += sum(workers)
        totals["sweep"] += sum(sweeps)
    rest, share = residual(totals["worker"], [totals["sweep"]])
    totals["worker_residual"] = rest
    totals["worker_residual_share"] = share
    return totals


def read_vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB.

    Read from ``/proc/<pid>/status`` because ``ru_maxrss`` of a child is
    inherited across ``exec`` from its parent and overstates it.
    """
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {status}")


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the bound check)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf
