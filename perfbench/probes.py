"""Timing wrappers the traced runs install around public ``repro`` functions.

The program is not edited: each wrapper replaces a name in the module that
*calls* it (``repro.kernels.warp.row_categorical_matrix`` is the binding the
word phase uses) and records through ``repro.obs.get_telemetry()``. A forked
training worker inherits the wrappers, records into the telemetry its shard
captures, and the parent's ``Telemetry.absorb`` brings the numbers home.
Untraced runs install nothing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.obs import get_telemetry

# Histogram records are not atomic; slab-kernel tasks may call a wrapped
# function from several pool threads at once.
_RECORD_LOCK = threading.Lock()


def _timed(fn: Callable[..., Any], metric: str) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        obs = get_telemetry()
        if obs.enabled:
            with _RECORD_LOCK:
                obs.observe(metric, elapsed)
        return result

    return wrapper


def _bucket_probe(
    fn: Callable[..., Any], seen: Dict[int, List[Any]]
) -> Callable[..., Any]:
    """Time ``corpus_buckets`` builds and count real vs padded slab cells.

    ``corpus_buckets`` memoises its result per corpus, so only the first
    call that returns a given list is a build; later calls are cache reads
    and are not charged. ``seen`` is shared by every binding wrapped.
    """

    def wrapper(corpus: Any, axis: str) -> Any:
        started = time.perf_counter()
        result = fn(corpus, axis)
        elapsed = time.perf_counter() - started
        obs = get_telemetry()
        if obs.enabled and id(result) not in seen:
            seen[id(result)] = result  # keeps the id from being reused
            real = sum(int(bucket.mask.sum()) for bucket in result)
            padded = sum(int(bucket.mask.size) for bucket in result)
            with _RECORD_LOCK:
                obs.observe("bench.buckets.build_seconds", elapsed)
                obs.count("bench.buckets.real_cells", real)
                obs.count("bench.buckets.padded_cells", padded)
        return result

    return wrapper


def _targets() -> List[Tuple[Any, str, Callable[[Callable[..., Any]], Any]]]:
    import repro.core.warplda as warplda
    import repro.kernels.buckets as buckets
    import repro.kernels.warp as warp
    import repro.training.parallel as parallel

    llh = "log_joint_likelihood_from_assignments"
    seen: Dict[int, List[Any]] = {}
    return [
        (warp, "row_categorical_matrix",
         lambda fn: _timed(fn, "bench.draws_seconds")),
        (warplda, "corpus_buckets", lambda fn: _bucket_probe(fn, seen)),
        (buckets, "corpus_buckets", lambda fn: _bucket_probe(fn, seen)),
        (warplda, llh, lambda fn: _timed(fn, "bench.llh_seconds")),
        (parallel, llh, lambda fn: _timed(fn, "bench.llh_seconds")),
    ]


@contextmanager
def installed() -> Iterator[None]:
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for module, name, wrap in _targets():
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, wrap(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
