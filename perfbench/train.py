"""The training workloads: ``train-ram`` (serial WarpLDA) and ``train-store``.

Both train K=1000 topics on the same generated corpus. A pass sets the
program up, runs one warm-up sweep (epoch), then times sweeps (epochs) one
at a time until the run's seconds are spent. The log-likelihood is taken
after a fixed number of timed sweeps, so it does not depend on how fast the
host is, and a traced pass at the same seed must reproduce it exactly.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import probes
from stats import epoch_ledger, percentile, read_vm_hwm_mb, residual

from repro import WarpLDA
from repro.corpus import Corpus, SyntheticCorpusSpec, generate_lda_corpus, open_store, write_store
from repro.kernels import buckets as buckets_module
from repro.obs import Telemetry, use_telemetry
from repro.training import ParallelTrainer

CORPUS_SPEC = SyntheticCorpusSpec(
    num_documents=5000, vocabulary_size=5000, mean_document_length=90, num_topics=20
)
NUM_TOPICS = 1000
NUM_MH_STEPS = 2
THREADS = 2
WORKERS = 2
#: Timed sweeps (train-ram) or epochs (train-store) before the likelihood.
LLH_AFTER = {"train-ram": 10, "train-store": 5}
#: Set-ups per untraced pass; the median is ``setup_s``.
SETUPS = {"train-ram": 5, "train-store": 3}
_STEP = {"train-ram": "sweep", "train-store": "epoch"}


def generate_corpus(seed: int) -> Corpus:
    return generate_lda_corpus(CORPUS_SPEC, seed=seed)


class Pass:
    """What one pass measured: set-up times, timed steps, the likelihood."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.op_s: List[float] = []
        self.failed = 0
        self.error = ""
        self.llh_per_token = math.nan
        self.setup_parts: Dict[str, List[float]] = {}


class Tracer:
    """The telemetry of a traced pass and the marks its report needs."""

    GAUGES = {
        "util.word": "pool.warp.word.utilization",
        "util.doc": "pool.warp.doc.utilization",
        "shard_skew": "parallel.shard_skew_seconds",
    }

    def __init__(self) -> None:
        self.obs = Telemetry()
        self.warm: Optional[_Totals] = None
        self.sampled: Dict[str, List[float]] = {key: [] for key in self.GAUGES}

    def after_warmup(self) -> None:
        self.warm = _Totals(self.obs.registry)

    def after_step(self) -> None:
        # Gauges keep only their last value: sample one per timed step.
        gauges = self.obs.registry.state_dict()["gauges"]
        for key, name in self.GAUGES.items():
            if gauges.get(name) is not None:
                self.sampled[key].append(gauges[name])


class _Totals:
    """Histogram totals, counters and series lengths at one instant."""

    def __init__(self, registry: Any) -> None:
        data = registry.state_dict()
        self.hist = {name: (h["count"], h["total"])
                     for name, h in data["histograms"].items()}
        self.counters = dict(data["counters"])
        self.series = {name: s["observed"] for name, s in data["series"].items()}

    def hist_since(self, registry: Any, name: str) -> Tuple[int, float]:
        now = registry.state_dict()["histograms"].get(name)
        if now is None:
            return 0, 0.0
        count, total = self.hist.get(name, (0, 0.0))
        return now["count"] - count, now["total"] - total

    def counter_since(self, registry: Any, name: str) -> float:
        now = registry.state_dict()["counters"].get(name, 0)
        return now - self.counters.get(name, 0)

    def series_since(self, registry: Any, name: str) -> List[float]:
        series = registry.state_dict()["series"].get(name)
        if series is None:
            return []
        fresh = series["observed"] - self.series.get(name, 0)
        return list(series["values"])[-fresh:] if fresh > 0 else []


def _timed_loop(
    result: Pass,
    step: Callable[[], None],
    llh: Callable[[], float],
    llh_after: int,
    seconds: float,
    tracer: Optional[Tracer],
) -> None:
    step()  # warm-up: first-touch pages, bucket builds, pool start
    if tracer is not None:
        tracer.after_warmup()
    deadline = time.perf_counter() + seconds
    while len(result.op_s) < llh_after or time.perf_counter() < deadline:
        started = time.perf_counter()
        try:
            step()
        except Exception as error:  # a failed step ends the pass, counted
            result.failed += 1
            result.error = repr(error)
            return
        result.op_s.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.after_step()
        if len(result.op_s) == llh_after:
            result.llh_per_token = llh()


Checks = List[Tuple[str, bool, str]]


def _check_counts(
    checks: Checks,
    assignments: np.ndarray,
    word_topic: np.ndarray,
    num_tokens: int,
    llh_per_token: float,
) -> None:
    topic_totals = word_topic.sum(axis=0)
    checks.append((
        "topic counts sum to the token count",
        int(topic_totals.sum()) == num_tokens
        and np.array_equal(topic_totals, np.bincount(assignments, minlength=NUM_TOPICS)),
        f"{int(topic_totals.sum())} counted, {num_tokens} tokens",
    ))
    in_range = assignments.size == num_tokens and bool(
        assignments.min() >= 0 and assignments.max() < NUM_TOPICS
    )
    checks.append(("every assignment in [0, K)", in_range,
                   f"{assignments.size} assignments"))
    checks.append(("llh_per_token is finite", math.isfinite(llh_per_token),
                   f"{llh_per_token!r}"))


def _ram_pass(
    corpus: Corpus, seed: int, seconds: float, setups: int, checks: Checks,
    tracer: Optional[Tracer],
) -> Pass:
    """Serial WarpLDA on the in-RAM corpus, 2 pool threads."""
    result = Pass()
    documents, vocabulary = corpus.documents, corpus.vocabulary
    for _ in range(setups):
        started = time.perf_counter()
        built = Corpus(documents, vocabulary)
        model = WarpLDA(built, num_topics=NUM_TOPICS, num_mh_steps=NUM_MH_STEPS,
                        threads=THREADS, seed=seed)
        buckets_module.corpus_buckets(built, "word")
        buckets_module.corpus_buckets(built, "doc")
        result.setup_s.append(time.perf_counter() - started)
    _timed_loop(
        result,
        lambda: model.fit(1),
        lambda: model.log_likelihood() / built.num_tokens,
        LLH_AFTER["train-ram"],
        seconds,
        tracer,
    )
    _check_counts(checks, model.assignments, model.word_topic_counts(),
                  built.num_tokens, result.llh_per_token)
    return result


def _store_pass(
    corpus: Corpus, seed: int, seconds: float, setups: int, checks: Checks,
    tracer: Optional[Tracer], workdir: Path,
) -> Pass:
    """Corpus store on disk, ParallelTrainer with 2 worker processes."""
    result = Pass()
    result.setup_parts = {"write": [], "open": [], "start": []}
    trainer: Optional[ParallelTrainer] = None
    try:
        for index in range(setups):
            if trainer is not None:
                trainer.close()
            store_dir = workdir / f"store{index}"
            shutil.rmtree(store_dir, ignore_errors=True)
            t0 = time.perf_counter()
            write_store(corpus, store_dir)
            t1 = time.perf_counter()
            mapped = open_store(store_dir)
            t2 = time.perf_counter()
            trainer = ParallelTrainer(
                mapped, num_workers=WORKERS, num_topics=NUM_TOPICS,
                num_mh_steps=NUM_MH_STEPS, threads=1, seed=seed, backend="process",
            )
            t3 = time.perf_counter()
            result.setup_s.append(t3 - t0)
            result.setup_parts["write"].append(t1 - t0)
            result.setup_parts["open"].append(t2 - t1)
            result.setup_parts["start"].append(t3 - t2)
        active = trainer
        assert active is not None
        _timed_loop(
            result,
            active.run_epoch,
            lambda: active.log_likelihood() / mapped.num_tokens,
            LLH_AFTER["train-store"],
            seconds,
            tracer,
        )
        _check_counts(checks, active.assignments(), active.word_topic_counts(),
                      mapped.num_tokens, result.llh_per_token)
    finally:
        if trainer is not None:
            trainer.close()
    return result


def _end_to_end(workload: str, result: Pass, num_tokens: int) -> Dict[str, Any]:
    """``name -> (value, unit, samples, what a sample is)``."""
    ops = result.op_s
    attempted = len(ops) + result.failed
    what = _STEP[workload] + "s"
    if not ops:
        return {}
    return {
        "setup_s": (statistics.median(result.setup_s), "s", len(result.setup_s),
                    "set-ups"),
        "tokens_per_s": (num_tokens / statistics.median(ops), "tokens/s", len(ops),
                         f"{what} (median)"),
        "llh_per_token": (result.llh_per_token, "nat", 1,
                          f"state after {LLH_AFTER[workload]} timed {what}"),
        "peak_rss_mb": (read_vm_hwm_mb(), "MiB", 1, "VmHWM of this process"),
        "ok_frac": ((attempted - result.failed) / attempted, "1", attempted, what),
        "p50_ms": (percentile(ops, 50) * 1e3, "ms", len(ops), what),
        "p90_ms": (percentile(ops, 90) * 1e3, "ms", len(ops), what),
        "ops_per_s": (len(ops) / sum(ops), "1/s", len(ops), what),
    }


def _spans(events: List[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    return [e for e in events if e["type"] == "span" and e["name"] == name]


def _children(events: List[Dict[str, Any]], name: str, parents: set) -> List[Dict[str, Any]]:
    return [e for e in _spans(events, name) if e["parent"] in parents]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _traced_layers(
    workload: str, plain: Pass, traced: Pass, tracer: Tracer
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics and the ledger lines of a traced pass."""
    registry, events = tracer.obs.registry, tracer.obs.events
    warm = tracer.warm
    assert warm is not None
    layers: Dict[str, Tuple[float, str]] = {}
    ledger: List[str] = []

    if workload == "train-ram":
        timed = [e for e in _spans(events, "sweep") if e["attrs"]["iteration"] >= 1]
    else:
        epochs = [e for e in _spans(events, "epoch") if e["attrs"]["epoch"] >= 1]
        shards = _children(events, "shard", {e["id"] for e in epochs})
        timed = _children(events, "sweep", {e["id"] for e in shards})
    ids = {e["id"] for e in timed}
    words = _children(events, "word_phase", ids)
    docs = _children(events, "doc_phase", ids)
    sweep_sum = sum(e["seconds"] for e in timed)
    word_sum = sum(e["seconds"] for e in words)
    doc_sum = sum(e["seconds"] for e in docs)

    layers["core.sweep_s"] = (_median([e["seconds"] for e in timed]), "s")
    layers["kernels.word_phase_s"] = (_median([e["seconds"] for e in words]), "s")
    layers["kernels.doc_phase_s"] = (_median([e["seconds"] for e in docs]), "s")
    _, draws = warm.hist_since(registry, "bench.draws_seconds")
    layers["kernels.draws_s"] = (_ratio(draws, len(timed)), "s")
    for axis in ("word", "doc"):
        layers[f"kernels.pool.utilization.{axis}"] = (
            _median(tracer.sampled[f"util.{axis}"]), "1")
        layers[f"kernels.pool.straggler_skew.{axis}"] = (
            _median(warm.series_since(registry, f"pool.warp.{axis}.straggler_skew")), "1")
    for proposal, name in (("doc_proposal", "doc"), ("word_proposal", "word")):
        layers[f"mh.{name}_accept_ratio"] = (_ratio(
            warm.counter_since(registry, f"mh.{proposal}.accepted"),
            warm.counter_since(registry, f"mh.{proposal}.proposed")), "1")
    build = registry.state_dict()["histograms"].get("bench.buckets.build_seconds")
    counters = registry.state_dict()["counters"]
    layers["buckets.build_s"] = (build["total"] if build else 0.0, "s")
    layers["buckets.fill_ratio"] = (_ratio(
        counters.get("bench.buckets.real_cells", 0),
        counters.get("bench.buckets.padded_cells", 0)), "1")
    llh = registry.state_dict()["histograms"].get("bench.llh_seconds")
    layers["eval.llh_s"] = (llh["total"] / llh["count"] if llh else 0.0, "s")

    ledger.append(f"{'sweep (sum of timed)':<34}{sweep_sum:>10.4f} s  n={len(timed)}")
    ledger.append(f"{'  word phase':<34}{word_sum:>10.4f} s")
    ledger.append(f"{'  doc phase':<34}{doc_sum:>10.4f} s")
    rest, share = residual(sweep_sum, [word_sum, doc_sum])
    ledger.append(f"{'  residual':<34}{rest:>10.4f} s  {share:.1%} of sweep")
    layers["ledger.residual_share"] = (share, "1")

    if workload == "train-store":
        by_epoch = []
        for epoch in epochs:
            mine = [s for s in shards if s["parent"] == epoch["id"]]
            sweeps = [e["seconds"] for e in timed
                      if e["parent"] in {s["id"] for s in mine}]
            by_epoch.append((epoch["seconds"], [s["seconds"] for s in mine], sweeps))
        totals = epoch_ledger(by_epoch)
        layers["parallel.worker_epoch_s"] = (_median([s["seconds"] for s in shards]), "s")
        count, wait = warm.hist_since(registry, "parallel.barrier_wait_seconds")
        layers["parallel.barrier_wait_s"] = (_ratio(wait, count), "s")
        layers["parallel.shard_skew_s"] = (_median(tracer.sampled["shard_skew"]), "s")
        layers["parallel.merge_s"] = (
            _median([e - max(w) for e, w, _ in by_epoch]), "s")
        vocab, topics = CORPUS_SPEC.vocabulary_size, NUM_TOPICS
        layers["parallel.bytes_per_epoch"] = (2.0 * WORKERS * vocab * topics * 8, "B")
        layers["parallel.start_s"] = (traced.setup_parts["start"][0], "s")
        layers["corpus.store_write_s"] = (traced.setup_parts["write"][0], "s")
        layers["corpus.store_open_s"] = (traced.setup_parts["open"][0], "s")
        ledger.append(f"{'epoch (sum of timed)':<34}{totals['epoch']:>10.4f} s  "
                      f"n={len(by_epoch)}")
        ledger.append(f"{'  slowest worker':<34}{totals['slowest']:>10.4f} s")
        ledger.append(f"{'  merge (epoch - slowest)':<34}{totals['merge']:>10.4f} s  "
                      f"{_ratio(totals['merge'], totals['epoch']):.1%} of epoch")
        ledger.append(f"{'worker (sum over workers)':<34}{totals['worker']:>10.4f} s")
        ledger.append(f"{'  sweep':<34}{totals['sweep']:>10.4f} s")
        ledger.append(f"{'  residual':<34}{totals['worker_residual']:>10.4f} s  "
                      f"{totals['worker_residual_share']:.1%} of worker")
        ledger.append(f"{'broadcast + merge bytes (computed)':<34}"
                      f"{layers['parallel.bytes_per_epoch'][0]:>10.0f} B per epoch")
        layers["ledger.residual_share"] = (totals["worker_residual_share"], "1")
    layers["trace.overhead"] = (
        statistics.median(traced.op_s) / statistics.median(plain.op_s), "1")
    ledger.append(f"trace.overhead = traced / untraced median {_STEP[workload]}: "
                  f"{layers['trace.overhead'][0]:.3f}")
    return layers, ledger


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict[str, Any]:
    """Run one training workload; ``run.py`` documents the result layout."""
    corpus = generate_corpus(seed)

    def one_pass(setups: int, checks: Checks, tracer: Optional[Tracer]) -> Pass:
        if workload == "train-ram":
            return _ram_pass(corpus, seed, seconds, setups, checks, tracer)
        return _store_pass(corpus, seed, seconds, setups, checks, tracer, workdir)

    checks: Checks = []
    plain = one_pass(SETUPS[workload], checks, None)
    out: Dict[str, Any] = {
        "end_to_end": _end_to_end(workload, plain, corpus.num_tokens),
        "attempted": len(plain.op_s) + plain.failed,
        "failed": plain.failed,
        "checks": checks,
        "layers": {},
        "ledger": [],
    }
    if plain.error:
        checks.append(("every timed step completed", False, plain.error))
    if not trace:
        return out

    tracer = Tracer()
    traced_checks: Checks = []
    with use_telemetry(tracer.obs), probes.installed():
        traced = one_pass(1, traced_checks, tracer)
    tracer.obs.close()
    checks.extend((f"traced: {name}", ok, detail) for name, ok, detail in traced_checks)
    if traced.error:
        checks.append(("traced: every timed step completed", False, traced.error))
        return out
    checks.append((
        "traced and untraced llh_per_token identical",
        traced.llh_per_token == plain.llh_per_token,
        f"{traced.llh_per_token!r} vs {plain.llh_per_token!r}",
    ))
    out["layers"], out["ledger"] = _traced_layers(workload, plain, traced, tracer)
    return out
