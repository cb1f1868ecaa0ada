"""The ``serve-mixed`` workload: HTTP serving under an open and a closed loop.

The service runs in its own process (``python -m repro serve --http``), so the
load generator's threads never share its interpreter lock. Each request is 4
held-out documents. A seeded draw makes each request either one of 16 hot
bodies, which the per-worker LRU caches answer after the first time, or a
body never sent before, which misses. The hot share is a parameter of the
workload and the run fails when the service's own cache counters disagree
with it.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from stats import (
    lateness_summary,
    open_loop_timings,
    percentile,
    read_vm_hwm_mb,
    residual,
    tail_percentile,
)

from repro import InferenceEngine, ModelSnapshot, TopicServer, WarpLDA
from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus
from repro.obs import Telemetry
from train import CORPUS_SPEC

NUM_TOPICS = 100
TRAIN_SWEEPS = 10
DOCS_PER_REQUEST = 4
HOT_BODIES = 16
HOT_SHARE = 0.5
HTTP_WORKERS = 2
CONNECTIONS = 2
OPEN_RATE = 200.0
WARMUP_S = 1.0
#: Each round is an open-loop window then a closed-loop window; every
#: end-to-end figure is the median over rounds, so a short stall on a shared
#: host moves one round, not the result.
ROUNDS = 5
#: Launches per untraced pass; the median launch-to-healthy time is setup_s.
LAUNCHES = 5
#: Closed-loop rate the unique-body pool is sized for (about twice what
#: 2 cores sustain); a closed window that runs out of bodies ends early.
MAX_RATE = 1000.0
#: Held-out documents come from their own generator seed.
HELDOUT_SEED_OFFSET = 1_000_003
CHECKED_BODIES = 8
Checks = List[Tuple[str, bool, str]]


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
def prepare(seed: int, seconds: float, workdir: Path) -> Dict[str, Any]:
    """Train the served snapshot and plan every request body of the run.

    The plan holds one body sequence per phase. The open-loop sequence has
    a fixed length, so the same seed always sends the same open-loop bodies;
    the warm-up and closed-loop sequences are sized for ``MAX_RATE`` and a
    closed loop that runs out of planned bodies ends early.
    """
    corpus = generate_lda_corpus(CORPUS_SPEC, seed=seed)
    model = WarpLDA(corpus, num_topics=NUM_TOPICS, seed=seed).fit(TRAIN_SWEEPS)
    snapshot_path = model.export_snapshot().save(workdir / "model.npz")

    window = seconds / (2 * ROUNDS)
    lengths = {
        "warmup": int(WARMUP_S * MAX_RATE),
        "open": ROUNDS * int(OPEN_RATE * window),
        "closed": int(seconds / 2 * MAX_RATE),
    }
    rng = np.random.default_rng(seed)
    next_unique = HOT_BODIES
    sequences: Dict[str, List[int]] = {}
    for phase, length in lengths.items():
        hot = rng.random(length) < HOT_SHARE
        picks = rng.integers(HOT_BODIES, size=length)
        sequence = []
        for slot in range(length):
            if hot[slot]:
                sequence.append(int(picks[slot]))
            else:
                sequence.append(next_unique)
                next_unique += 1
        sequences[phase] = sequence

    spec = SyntheticCorpusSpec(
        num_documents=DOCS_PER_REQUEST * next_unique,
        vocabulary_size=CORPUS_SPEC.vocabulary_size,
        mean_document_length=CORPUS_SPEC.mean_document_length,
        num_topics=CORPUS_SPEC.num_topics,
    )
    heldout = generate_lda_corpus(spec, seed=seed + HELDOUT_SEED_OFFSET)
    docs = [np.asarray(doc.word_ids, dtype=np.int64) for doc in heldout.documents]
    if len({tuple(sorted(doc.tolist())) for doc in docs}) != len(docs):
        raise RuntimeError("held-out documents repeat; cache shares would be wrong")
    bodies = [docs[i:i + DOCS_PER_REQUEST] for i in range(0, len(docs), DOCS_PER_REQUEST)]
    return {
        "snapshot": snapshot_path,
        "bodies": bodies,
        "encoded": [json.dumps({"documents": [d.tolist() for d in body]}).encode()
                    for body in bodies],
        "sequences": sequences,
        "window": window,
    }


# --------------------------------------------------------------------- #
# A minimal keep-alive HTTP/1.1 client (one socket, one request at a time)
# --------------------------------------------------------------------- #
class Connection:
    """Raw-socket client: the load generator shares two cores with the
    service, so it does no more per request than write, read and split."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        header, _, rest = self.buffer.partition(b"\r\n\r\n")
        lines = header.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.buffer = rest
        while len(self.buffer) < length:
            self._fill()
        payload, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


def get_json(host: str, port: int, path: str) -> Tuple[int, Any]:
    conn = Connection(host, port)
    try:
        status, body = conn.request("GET", path)
    finally:
        conn.close()
    return status, json.loads(body)


# --------------------------------------------------------------------- #
# The service process
# --------------------------------------------------------------------- #
class Service:
    """``python -m repro serve --http`` in a child process."""

    def __init__(self, root: Path, snapshot: Path, workdir: Path, tag: str) -> None:
        self.log_path = workdir / f"{tag}.log"
        self.telemetry = workdir / f"{tag}.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", str(snapshot),
             "--http", "127.0.0.1:0", "--http-workers", str(HTTP_WORKERS),
             "--telemetry", str(self.telemetry)],
            stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=str(workdir),
        )
        try:
            self.host, self.port = self._wait_address(started + 60)
            self._wait_healthy(started + 60)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_address(self, deadline: float) -> Tuple[str, int]:
        pattern = re.compile(rb"on http://([0-9.]+):(\d+)")
        while time.perf_counter() < deadline:
            match = pattern.search(self.log_path.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.process.poll() is not None:
                raise RuntimeError(f"service exited: {self.log_path.read_text()}")
            time.sleep(0.002)
        raise RuntimeError("service did not report its address")

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if get_json(self.host, self.port, "/healthz")[0] == 200:
                    return
            except (ConnectionError, OSError, ValueError):
                pass
            time.sleep(0.002)
        raise RuntimeError("service never answered /healthz with 200")

    def stop(self) -> Dict[str, Any]:
        """SIGINT, wait, and return the metrics digest the service wrote."""
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=60)
        finally:
            self.kill()
        metrics = self.telemetry.with_suffix(".metrics.json")
        return json.loads(metrics.read_text()) if metrics.exists() else {}

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        self._log.close()


# --------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------- #
class Record(NamedTuple):
    phase: str
    round: int
    body: int
    due: float
    sent: float
    done: float
    status: int
    payload: bytes


class Load:
    """Sends planned bodies over the client connections, one thread each.

    A traced load wraps every request in a ``client.request`` span of its
    connection's own ``Telemetry``, so no two threads write one registry.
    """

    def __init__(self, plan: Dict[str, Any], conns: List[Connection], traced: bool) -> None:
        self.plan = plan
        self.conns = conns
        self.telemetry = [Telemetry() if traced else None for _ in conns]
        self.cursors = {phase: 0 for phase in plan["sequences"]}
        self.lock = threading.Lock()
        self.records: List[Record] = []

    def _take(self, phase: str) -> Optional[int]:
        with self.lock:
            index = self.cursors[phase]
            if index >= len(self.plan["sequences"][phase]):
                return None
            self.cursors[phase] = index + 1
            return index

    def _send(self, lane: int, phase: str, round_: int, index: int, due: float) -> None:
        body = self.plan["sequences"][phase][index]
        conn, obs = self.conns[lane], self.telemetry[lane]
        sent = time.perf_counter()
        try:
            with obs.span("client.request", phase=phase) if obs else nullcontext():
                status, payload = conn.request("POST", "/infer", self.plan["encoded"][body])
        except (ConnectionError, OSError) as error:
            status, payload = 0, repr(error).encode()
        done = time.perf_counter()
        with self.lock:
            self.records.append(
                Record(phase, round_, body, due, sent, done, status, payload))

    def _threads(self, target: Any) -> float:
        started = time.perf_counter()
        threads = [threading.Thread(target=target, args=(lane,))
                   for lane in range(len(self.conns))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started

    def closed_loop(self, phase: str, round_: int, seconds: float) -> float:
        """Back-to-back requests on every connection; returns the wall time."""
        deadline = time.perf_counter() + seconds

        def worker(lane: int) -> None:
            while time.perf_counter() < deadline:
                index = self._take(phase)
                if index is None:
                    return
                self._send(lane, phase, round_, index, time.perf_counter())

        return self._threads(worker)

    def open_loop(self, round_: int, count: int) -> None:
        """``count`` requests due at ``OPEN_RATE``, whatever the replies do."""
        start = time.perf_counter() + 0.005
        issued = [0]

        def worker(lane: int) -> None:
            while True:
                with self.lock:
                    offset = issued[0]
                    issued[0] += 1
                if offset >= count:
                    return
                index = self._take("open")
                if index is None:
                    return
                due = start + offset / OPEN_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self._send(lane, "open", round_, index, due)

        self._threads(worker)

    def client_spans(self) -> List[float]:
        """Durations of the traced ``client.request`` spans of every lane."""
        return [event["seconds"] for obs in self.telemetry if obs is not None
                for event in obs.events if event["type"] == "span"]


# --------------------------------------------------------------------- #
# One pass: launch(es), warm-up, rounds of open and closed loop, shutdown
# --------------------------------------------------------------------- #
def _pass(root: Path, plan: Dict[str, Any], launches: int, workdir: Path,
          tag: str, traced: bool) -> Dict[str, Any]:
    setup: List[float] = []
    closed_walls: List[float] = []
    service: Optional[Service] = None
    try:
        for index in range(launches):
            if service is not None:
                service.stop()
            service = Service(root, plan["snapshot"], workdir, f"{tag}{index}")
            setup.append(service.setup_s)
        assert service is not None
        conns = [Connection(service.host, service.port) for _ in range(CONNECTIONS)]
        load = Load(plan, conns, traced)
        per_round = len(plan["sequences"]["open"]) // ROUNDS
        try:
            load.closed_loop("warmup", -1, WARMUP_S)
            for round_ in range(ROUNDS):
                load.open_loop(round_, per_round)
                closed_walls.append(load.closed_loop("closed", round_, plan["window"]))
        finally:
            for conn in conns:
                conn.close()
        stats_status, stats = get_json(service.host, service.port, "/stats")
        rss = read_vm_hwm_mb(service.process.pid)
        metrics = service.stop()
        service = None
    finally:
        if service is not None:
            service.kill()
    return {
        "setup": setup, "records": load.records, "closed_walls": closed_walls,
        "client_spans": load.client_spans(),
        "stats": stats if stats_status == 200 else {}, "rss": rss, "metrics": metrics,
    }


def _hist(metrics: Dict[str, Any], name: str) -> Dict[str, float]:
    return metrics.get("histograms", {}).get(name) or {"count": 0, "sum": 0.0}


def _hist_mean(metrics: Dict[str, Any], name: str) -> float:
    hist = _hist(metrics, name)
    return hist["sum"] / hist["count"] if hist.get("count") else 0.0


def _answered(result: Dict[str, Any], phase: Optional[str] = None) -> List[Record]:
    return [r for r in result["records"]
            if r.status == 200 and (phase is None or r.phase == phase)]


def _check(result: Dict[str, Any], plan: Dict[str, Any], snapshot: ModelSnapshot,
           checks: Checks) -> List[Tuple[Record, np.ndarray]]:
    """Output checks of one pass; returns every answered open-loop request's θ."""
    ok = _answered(result)
    thetas = [np.asarray(json.loads(r.payload)["theta"], dtype=np.float64) for r in ok]
    shapes = all(t.shape == (DOCS_PER_REQUEST, NUM_TOPICS) for t in thetas)
    sums = max((float(np.abs(t.sum(axis=1) - 1.0).max()) for t in thetas), default=0.0)
    checks.append(("every θ row has K entries and sums to 1", shapes and sums < 1e-9,
                   f"{len(thetas)} responses, max |Σθ-1|={sums:.2e}"))

    first: Dict[int, np.ndarray] = {}
    repeats = mismatched = 0
    for record, theta in zip(ok, thetas):
        if record.body >= HOT_BODIES:
            continue
        if record.body in first:
            repeats += 1
            mismatched += int(not np.array_equal(first[record.body], theta))
        else:
            first[record.body] = theta
    checks.append(("repeats of a hot body return identical θ", mismatched == 0,
                   f"{repeats} repeats, {mismatched} differ"))

    server = TopicServer(InferenceEngine(snapshot, strategy="em"))
    hot_sample: Dict[int, np.ndarray] = {}
    unique_sample: Dict[int, np.ndarray] = {}
    for record, theta in zip(ok, thetas):
        picked = hot_sample if record.body < HOT_BODIES else unique_sample
        if len(picked) < CHECKED_BODIES // 2:
            picked.setdefault(record.body, theta)
    sample = {**hot_sample, **unique_sample}
    worst = 0.0
    for body, theta in sample.items():
        expected = server.infer_batch(plan["bodies"][body])
        worst = max(worst, float(np.abs(expected - theta).max()))
    checks.append(("sampled responses match in-process TopicServer.infer_batch",
                   bool(sample) and worst <= 1e-12,
                   f"{len(sample)} bodies, max |Δθ|={worst:.2e}"))

    docs_sent = DOCS_PER_REQUEST * len(ok)
    hot_docs = DOCS_PER_REQUEST * sum(1 for r in ok if r.body < HOT_BODIES)
    counters = result["metrics"].get("counters", {})
    served_docs = counters.get("serving.requests", 0)
    hits = counters.get("serving.cache_hits", 0)
    # Each worker misses a hot body the first time it sees it.
    first_touch = HOT_BODIES * HTTP_WORKERS * DOCS_PER_REQUEST
    checks.append(("service counted every document sent", served_docs == docs_sent,
                   f"{served_docs} served, {docs_sent} sent"))
    checks.append((
        "serving.cache_hit_ratio matches the planned hot share",
        hot_docs - first_touch <= hits <= hot_docs,
        f"{hits} hits of {served_docs}; planned {hot_docs} "
        f"(share {hot_docs / max(docs_sent, 1):.3f}, first touches ≤ {first_touch})",
    ))
    service_requests = counters.get("service.requests", 0)
    checks.append(("service counted every request answered",
                   service_requests == len(ok), f"{service_requests} vs {len(ok)}"))
    return [(r, t) for r, t in zip(ok, thetas) if r.phase == "open"]


def _round_values(result: Dict[str, Any], plan: Dict[str, Any]) -> Dict[str, List[float]]:
    """Per-round open-loop percentiles and closed-loop rates."""
    values: Dict[str, List[float]] = {"p50": [], "p90": [], "rps": [], "tps": []}
    for round_, wall in enumerate(result["closed_walls"]):
        opened = [r for r in _answered(result, "open") if r.round == round_]
        closed = [r for r in _answered(result, "closed") if r.round == round_]
        latency = open_loop_timings([r.due for r in opened], [r.sent for r in opened],
                                    [r.done for r in opened])["latency"]
        if latency:
            values["p50"].append(percentile(latency, 50) * 1e3)
            values["p90"].append(percentile(latency, 90) * 1e3)
        if closed:
            values["rps"].append(len(closed) / wall)
            values["tps"].append(sum(int(d.size) for r in closed
                                     for d in plan["bodies"][r.body]) / wall)
    return values


def _end_to_end(result: Dict[str, Any], opened: List[Tuple[Record, np.ndarray]],
                plan: Dict[str, Any], snapshot: ModelSnapshot) -> Dict[str, Any]:
    rounds = _round_values(result, plan)
    phi = np.asarray(snapshot.phi)
    log_total, tokens = 0.0, 0
    for record, theta in opened:
        for row, doc in zip(theta, plan["bodies"][record.body]):
            log_total += float(np.log(row @ phi[:, doc]).sum())
            tokens += int(doc.size)
    attempted = len(result["records"])
    succeeded = len(_answered(result))
    closed = len(_answered(result, "closed"))
    per_round = f"median of {ROUNDS} rounds"
    return {
        "setup_s": (statistics.median(result["setup"]), "s", len(result["setup"]),
                    "launches to first healthy /healthz"),
        "tokens_per_s": (statistics.median(rounds["tps"]), "tokens/s", closed,
                         f"closed-loop requests, {per_round}"),
        "llh_per_token": (log_total / tokens if tokens else math.nan, "nat", tokens,
                          "held-out tokens under the served θ"),
        "peak_rss_mb": (result["rss"], "MiB", 1, "VmHWM of the service process"),
        "ok_frac": (succeeded / attempted if attempted else 0.0, "1", attempted,
                    "requests"),
        "p50_ms": (statistics.median(rounds["p50"]), "ms", len(opened),
                   f"open-loop requests at {OPEN_RATE:.0f}/s from due time, {per_round}"),
        "p90_ms": (statistics.median(rounds["p90"]), "ms", len(opened),
                   f"open-loop requests at {OPEN_RATE:.0f}/s from due time, {per_round}"),
        "ops_per_s": (statistics.median(rounds["rps"]), "1/s", closed,
                      f"closed-loop requests on {CONNECTIONS} connections, {per_round}"),
    }


def _tail_line(result: Dict[str, Any]) -> str:
    latency = [r.done - r.due for r in _answered(result, "open")]
    q = tail_percentile(len(latency))
    tail = f"p{q:g} {percentile(latency, q) * 1e3:.3f} ms" if q else "none"
    return (f"open-loop latency over all rounds: p99 {percentile(latency, 99) * 1e3:.3f} ms;"
            f" highest percentile with 10 samples beyond: {tail} (n={len(latency)})")


def run(root: Path, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict[str, Any]:
    """Run serve-mixed; ``run.py`` documents the result layout."""
    plan = prepare(seed, seconds, workdir)
    snapshot = ModelSnapshot.load(plan["snapshot"])
    checks: Checks = []
    plain = _pass(root, plan, LAUNCHES, workdir, "plain", False)
    opened = _check(plain, plan, snapshot, checks)
    out: Dict[str, Any] = {
        "end_to_end": _end_to_end(plain, opened, plan, snapshot),
        "attempted": len(plain["records"]),
        "failed": len(plain["records"]) - len(_answered(plain)),
        "checks": checks,
        "layers": {},
        "ledger": [],
        "notes": [_tail_line(plain)] if _answered(plain, "open") else [],
    }
    if not trace:
        return out

    traced = _pass(root, plan, 1, workdir, "traced", True)
    traced_checks: Checks = []
    _check(traced, plan, snapshot, traced_checks)
    checks.extend((f"traced: {name}", ok, detail) for name, ok, detail in traced_checks)
    out["layers"], out["ledger"] = _layers(plain, traced, plan)
    return out


def _layers(plain: Dict[str, Any], traced: Dict[str, Any], plan: Dict[str, Any]
            ) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    metrics, stats = traced["metrics"], traced["stats"]
    counters = metrics.get("counters", {})
    layers: Dict[str, Tuple[float, str]] = {
        "service.request_s": (_hist_mean(metrics, "service.request_seconds"), "s"),
        "service.queue_s": (_hist_mean(metrics, "service.queue_seconds"), "s"),
        "service.worker_task_s": (_hist_mean(metrics, "service.worker_task_seconds"), "s"),
        "serving.fold_in_s": (_hist_mean(metrics, "serving.batch_seconds"), "s"),
        "serving.cache_hit_ratio": (
            counters.get("serving.cache_hits", 0) / counters["serving.requests"]
            if counters.get("serving.requests") else 0.0, "1"),
        "service.rejected": (float(stats.get("rejected", 0)), "count"),
        "service.timeouts": (float(stats.get("timed_out", 0)), "count"),
        "service.errors": (float(stats.get("errors", 0)), "count"),
    }
    utilization = list((stats.get("worker_utilization") or {}).values())
    layers["service.worker_utilization"] = (
        statistics.mean(utilization) if utilization else 0.0, "1")
    opened = _answered(traced, "open")
    late = lateness_summary(open_loop_timings(
        [r.due for r in opened], [r.sent for r in opened], [r.done for r in opened])["late"])
    layers["client.late_s"] = (late["median"], "s")
    layers["client.late_max_s"] = (late["max"], "s")
    layers["client.late_count"] = (float(late["count"]), "count")

    client_sum = sum(traced["client_spans"])
    request = _hist(metrics, "service.request_seconds")
    queue = _hist(metrics, "service.queue_seconds")
    task = _hist(metrics, "service.worker_task_seconds")
    rest, share = residual(client_sum, [request["sum"]])
    inner, inner_share = residual(request["sum"], [queue["sum"], task["sum"]])
    ledger = [
        f"{'client latency (client.request)':<34}{client_sum:>10.4f} s  "
        f"n={len(traced['client_spans'])}",
        f"{'  service.request_s':<34}{request['sum']:>10.4f} s  n={request['count']}",
        f"{'    service.queue_s':<34}{queue['sum']:>10.4f} s",
        f"{'    service.worker_task_s':<34}{task['sum']:>10.4f} s",
        f"{'    residual (pipes, admission)':<34}{inner:>10.4f} s  "
        f"{inner_share:.1%} of request",
        f"{'  residual (HTTP, JSON, socket)':<34}{rest:>10.4f} s  {share:.1%} of client",
        f"open-loop lateness: median {late['median'] * 1e3:.3f} ms, "
        f"max {late['max'] * 1e3:.3f} ms, {late['count']} of {len(opened)} late",
    ]
    layers["ledger.residual_share"] = (share, "1")
    layers["trace.overhead"] = (
        statistics.median(_round_values(traced, plan)["p50"])
        / statistics.median(_round_values(plain, plan)["p50"]), "1")
    ledger.append(f"trace.overhead = traced / untraced p50_ms: "
                  f"{layers['trace.overhead'][0]:.3f}")
    return layers, ledger
