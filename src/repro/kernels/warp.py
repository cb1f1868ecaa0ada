"""WarpLDA's two phases (Alg. 2) executed over slab buckets.

The scalar implementation in :mod:`repro.core.warplda` vectorises the tokens
*of one word* (or document) but still pays a Python-loop iteration per row —
O(V) + O(D) interpreter steps per iteration.  The kernels here run the same
computation for an entire length bucket at once:

* gather the bucket's current assignments into an ``(R, L)`` matrix,
* rebuild every row's count vector ``c_w`` / ``c_d`` with one masked
  ``bincount`` (the on-the-fly count computation of Sec. 4.2),
* run the ``M``-step MH accept/reject chain of Eq. (7) as broadcast
  arithmetic over the whole matrix,
* recompute the fresh counts and draw the next phase's ``M`` proposals
  (Sec. 4.3: random positioning + prior mixture, or an exact draw from
  ``C_rk + prior`` via a batched inverse-CDF pass).

Because WarpLDA's counts are **delayed** for the duration of a phase, no
row's chain observes another row's in-phase updates — rows are independent
given the frozen global ``c_k`` — so slab-parallel execution produces a chain
with *identical* per-row transition kernels to the scalar path (only the
order in which the RNG streams are consumed differs).

Threaded execution
------------------
Each phase decomposes into **bucket chunks** (``SlabBucket.chunks``), whose
writes target disjoint token sets and whose shared reads (``assignments`` at
gather time, the frozen ``stale_topic_counts``/``external_word_topic``) are
fixed for the phase.  The chunks are dispatched through
:mod:`repro.kernels.pool`, each consuming its own generator spawned from the
phase RNG (:func:`repro.kernels.pool.spawn_task_rngs`), so the result is
bit-identical for every thread count — ``threads=1`` simply runs the same
tasks inline.  The chunk list is a pure function of the corpus, ``K`` and
``max_cells``; it never depends on the thread count.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

import numpy as np

from repro.kernels import pool
from repro.kernels.buckets import MAX_SLAB_CELLS, SlabBucket
from repro.kernels.draws import row_categorical_matrix
from repro.sampling.alias import AliasTable

__all__ = ["document_phase", "word_phase"]


def _phase_chunks(
    buckets: List[SlabBucket], num_topics: int, max_cells: Optional[int]
) -> List[SlabBucket]:
    """The phase's task list: every bucket chunk, in bucket order.

    ``max_cells`` bounds both the ``R x L`` token matrix and (via the row
    cap) the ``R x K`` per-row histograms — the slab working-set knob the
    cache-analysis bench turns.  The decomposition depends only on the
    buckets, ``K`` and ``max_cells``, never on the thread count: that is
    what makes the per-task RNG streams (and so the whole trajectory)
    thread-count-invariant.
    """
    if max_cells is None:
        max_cells = MAX_SLAB_CELLS
    max_rows = max(1, max_cells // max(1, num_topics))
    return [
        chunk
        for bucket in buckets
        for chunk in bucket.chunks(max_cells=max_cells, max_rows=max_rows)
    ]


def _merge_chain_stats(chain_stats: Optional[dict], per_task: List[dict]) -> None:
    """Reduce per-task acceptance counters into the caller's accumulator.

    ``chain_stats`` is modified in place (its ``proposed``/``accepted``
    entries accumulate the per-task totals, in task order).
    """
    if chain_stats is None:
        return
    for stats in per_task:
        chain_stats["proposed"] += stats["proposed"]
        chain_stats["accepted"] += stats["accepted"]


def _row_counts(
    current: np.ndarray, mask: np.ndarray, num_topics: int
) -> np.ndarray:
    """Per-row topic histograms of an ``(R, L)`` assignment matrix."""
    num_rows = current.shape[0]
    keyed = current + np.arange(num_rows)[:, None] * num_topics
    counts = np.bincount(keyed[mask], minlength=num_rows * num_topics)
    return counts.reshape(num_rows, num_topics).astype(np.float64)


def _run_chain(
    current: np.ndarray,
    proposals: np.ndarray,
    tokens: np.ndarray,
    mask: np.ndarray,
    row_counts: np.ndarray,
    row_prior_current: np.ndarray,
    stale_topic_counts: np.ndarray,
    beta_sum: float,
    num_mh_steps: int,
    rng: np.random.Generator,
    prior_proposed_of=None,
    chain_stats: Optional[dict] = None,
) -> np.ndarray:
    """Accept/reject the ``M`` stored proposals for one bucket chunk.

    Implements Eq. (7): ``π = min{1, (C_rt + prior_t)(C_s + β̄) /
    ((C_rs + prior_s)(C_t + β̄))}`` with ``C_r`` the row's delayed counts and
    ``C`` the phase-frozen global topic counts.  ``row_prior_current`` is the
    prior term already gathered at the current assignments;
    ``prior_proposed_of`` maps a proposed-topic matrix to its prior term (a
    constant β for the word phase, ``α[topic]`` for the document phase).

    ``chain_stats`` (telemetry only, ``None`` by default) is a mutable
    ``{"proposed": int, "accepted": int}`` accumulator for MH acceptance
    counting; it never touches the RNG stream, so instrumented and plain
    runs stay bit-identical.
    """
    rows = np.arange(current.shape[0])[:, None]
    uniforms = rng.random((num_mh_steps,) + current.shape)
    valid = int(np.count_nonzero(mask)) if chain_stats is not None else 0
    for step in range(num_mh_steps):
        proposed = proposals[step][tokens]
        prior_proposed = prior_proposed_of(proposed)
        ratio = (
            (row_counts[rows, proposed] + prior_proposed)
            * (stale_topic_counts[current] + beta_sum)
        ) / (
            (row_counts[rows, current] + row_prior_current)
            * (stale_topic_counts[proposed] + beta_sum)
        )
        accept = mask & (uniforms[step] < ratio)
        if chain_stats is not None:
            chain_stats["proposed"] += valid
            chain_stats["accepted"] += int(np.count_nonzero(accept))
        current = np.where(accept, proposed, current)
        if not np.isscalar(row_prior_current):
            row_prior_current = np.where(accept, prior_proposed, row_prior_current)
    return current


def _word_chunk(
    assignments: np.ndarray,
    proposals: np.ndarray,
    chunk: SlabBucket,
    stale_topic_counts: np.ndarray,
    num_topics: int,
    num_mh_steps: int,
    beta: float,
    beta_sum: float,
    rng: np.random.Generator,
    exact: bool,
    external_word_topic: Optional[np.ndarray],
    chain_stats: Optional[dict],
) -> None:
    """Word-phase body for one bucket chunk (one pool task).

    Mutates ``assignments`` (this chunk's tokens only — chunks are disjoint)
    and ``proposals`` (the same token columns) in place; every random draw
    comes from the task-local ``rng``.
    """
    tokens, mask, lengths = chunk.tokens, chunk.mask, chunk.lengths
    current = assignments[tokens]
    word_counts = _row_counts(current, mask, num_topics)
    if external_word_topic is not None:
        word_counts += external_word_topic[chunk.rows]

    current = _run_chain(
        current,
        proposals,
        tokens,
        mask,
        word_counts,
        beta,
        stale_topic_counts,
        beta_sum,
        num_mh_steps,
        rng,
        prior_proposed_of=lambda proposed: beta,
        chain_stats=chain_stats,
    )
    assignments[tokens[mask]] = current[mask]

    # Fresh c_w for the proposal distribution (Alg. 2 recomputes it
    # after the chain, before drawing q_word).
    flat_tokens = tokens[mask]
    if exact:
        fresh = _row_counts(current, mask, num_topics)
        if external_word_topic is not None:
            fresh += external_word_topic[chunk.rows]
        # One batched draw covers all M steps, so the per-row CDF is
        # prepared once instead of once per step.
        slab_len = chunk.slab_len
        drawn = row_categorical_matrix(fresh + beta, slab_len * num_mh_steps, rng)
        for step in range(num_mh_steps):
            block = drawn[:, step * slab_len : (step + 1) * slab_len]
            proposals[step, flat_tokens] = block[mask]
    else:
        word_weight = (lengths / (lengths + num_topics * beta))[:, None]
        for step in range(num_mh_steps):
            use_counts = rng.random(current.shape) < word_weight
            positions = rng.integers(0, lengths[:, None], size=current.shape)
            positioned = np.take_along_axis(current, positions, axis=1)
            uniform = rng.integers(num_topics, size=current.shape)
            drawn = np.where(use_counts, positioned, uniform)
            proposals[step, flat_tokens] = drawn[mask]


def word_phase(
    assignments: np.ndarray,
    proposals: np.ndarray,
    buckets: List[SlabBucket],
    stale_topic_counts: np.ndarray,
    num_topics: int,
    num_mh_steps: int,
    beta: float,
    beta_sum: float,
    rng: np.random.Generator,
    exact_word_proposal: bool = False,
    external_word_topic: Optional[np.ndarray] = None,
    chain_stats: Optional[dict] = None,
    threads: Optional[int] = None,
    max_cells: Optional[int] = None,
) -> None:
    """Word phase over word-axis buckets: accept doc proposals, draw word proposals.

    Mutates ``assignments`` and ``proposals`` in place.  ``stale_topic_counts``
    is the phase-frozen global ``c_k`` (float64, external shard counts already
    added).  ``exact_word_proposal`` selects the Sec. 4.3 alias strategy —
    an exact batched draw from ``q_word(k) ∝ C_wk + β`` — which is also forced
    whenever frozen ``external_word_topic`` counts are installed (random
    positioning cannot reach the other shards' tokens).

    Bucket chunks run as independent tasks on :mod:`repro.kernels.pool`
    (``threads`` per :func:`repro.kernels.pool.resolve_threads`), each with
    its own RNG stream spawned from ``rng`` — one main-stream draw per phase,
    so the trajectory is bit-identical for every thread count.
    ``max_cells`` overrides the per-chunk working-set budget
    (:data:`~repro.kernels.buckets.MAX_SLAB_CELLS`).
    """
    exact = exact_word_proposal or external_word_topic is not None
    chunks = _phase_chunks(buckets, num_topics, max_cells)
    if not chunks:
        return
    task_rngs = pool.spawn_task_rngs(rng, len(chunks))
    per_task = [{"proposed": 0, "accepted": 0} for _ in chunks]
    tasks = [
        partial(
            _word_chunk,
            assignments,
            proposals,
            chunk,
            stale_topic_counts,
            num_topics,
            num_mh_steps,
            beta,
            beta_sum,
            task_rngs[index],
            exact,
            external_word_topic,
            per_task[index] if chain_stats is not None else None,
        )
        for index, chunk in enumerate(chunks)
    ]
    pool.run_tasks(tasks, threads=threads, label="warp.word")
    _merge_chain_stats(chain_stats, per_task)


def _document_chunk(
    assignments: np.ndarray,
    proposals: np.ndarray,
    chunk: SlabBucket,
    stale_topic_counts: np.ndarray,
    alpha: np.ndarray,
    alpha_sum: float,
    num_topics: int,
    num_mh_steps: int,
    beta_sum: float,
    rng: np.random.Generator,
    alpha_alias: Optional[AliasTable],
    chain_stats: Optional[dict],
) -> None:
    """Document-phase body for one bucket chunk (one pool task).

    Mutates ``assignments`` (this chunk's tokens only — chunks are disjoint)
    and ``proposals`` (the same token columns) in place; every random draw
    comes from the task-local ``rng``.
    """
    tokens, mask, lengths = chunk.tokens, chunk.mask, chunk.lengths
    current = assignments[tokens]
    doc_counts = _row_counts(current, mask, num_topics)

    current = _run_chain(
        current,
        proposals,
        tokens,
        mask,
        doc_counts,
        alpha[current],
        stale_topic_counts,
        beta_sum,
        num_mh_steps,
        rng,
        prior_proposed_of=lambda proposed: alpha[proposed],
        chain_stats=chain_stats,
    )
    assignments[tokens[mask]] = current[mask]

    flat_tokens = tokens[mask]
    doc_weight = (lengths / (lengths + alpha_sum))[:, None]
    for step in range(num_mh_steps):
        use_counts = rng.random(current.shape) < doc_weight
        positions = rng.integers(0, lengths[:, None], size=current.shape)
        positioned = np.take_along_axis(current, positions, axis=1)
        if alpha_alias is None:
            prior = rng.integers(num_topics, size=current.shape)
        else:
            prior = alpha_alias.draw_many(current.size, rng).reshape(current.shape)
        drawn = np.where(use_counts, positioned, prior)
        proposals[step, flat_tokens] = drawn[mask]


def document_phase(
    assignments: np.ndarray,
    proposals: np.ndarray,
    buckets: List[SlabBucket],
    stale_topic_counts: np.ndarray,
    alpha: np.ndarray,
    alpha_sum: float,
    num_topics: int,
    num_mh_steps: int,
    beta_sum: float,
    rng: np.random.Generator,
    alpha_alias: Optional[AliasTable] = None,
    chain_stats: Optional[dict] = None,
    threads: Optional[int] = None,
    max_cells: Optional[int] = None,
) -> None:
    """Document phase over doc-axis buckets: accept word proposals, draw doc proposals.

    Symmetric to :func:`word_phase` with the document prior α in place of β;
    ``alpha_alias`` supplies the prior component of the mixture draw when α is
    asymmetric (``None`` means symmetric α, i.e. a uniform prior draw).
    Like :func:`word_phase`, mutates ``assignments`` and ``proposals`` in
    place (accepted moves and freshly drawn doc-phase proposals), dispatches
    bucket chunks through :mod:`repro.kernels.pool` with per-task RNG
    streams, and honours the same ``threads``/``max_cells``
    knobs with the same bit-exact determinism contract.
    """
    chunks = _phase_chunks(buckets, num_topics, max_cells)
    if not chunks:
        return
    task_rngs = pool.spawn_task_rngs(rng, len(chunks))
    per_task = [{"proposed": 0, "accepted": 0} for _ in chunks]
    tasks = [
        partial(
            _document_chunk,
            assignments,
            proposals,
            chunk,
            stale_topic_counts,
            alpha,
            alpha_sum,
            num_topics,
            num_mh_steps,
            beta_sum,
            task_rngs[index],
            alpha_alias,
            per_task[index] if chain_stats is not None else None,
        )
        for index, chunk in enumerate(chunks)
    ]
    pool.run_tasks(tasks, threads=threads, label="warp.doc")
    _merge_chain_stats(chain_stats, per_task)
