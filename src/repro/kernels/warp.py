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

Compiled chain
--------------
When :mod:`repro.kernels.native` provides its library, each chunk's chain
and proposal scatter run in C (``_warp.c``): one K-length count vector per
row instead of the ``(R, K)`` histogram, the accept/reject of Eq. (7)
element by element, the GIL released for the call.  A chunk makes the same
NumPy RNG calls, in the same order and shapes, either way, and the C code
repeats the NumPy arithmetic operation for operation, so the two tiers are
byte-identical and the NumPy body below is the fallback and the oracle.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

import numpy as np

from repro.kernels import native, pool
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


def _compiled(
    assignments: np.ndarray,
    proposals: np.ndarray,
    num_topics: int,
    topic_vectors: tuple,
    external_word_topic: Optional[np.ndarray] = None,
):
    """The compiled chain library, if this phase's arrays can go to it zero-copy.

    ``None`` — run the NumPy slab body — when :mod:`repro.kernels.native`
    has no library, when ``assignments``, ``proposals`` or
    ``external_word_topic`` is not the writable, C-contiguous int64 buffer
    the C code indexes directly, or when a K-indexed input
    (``topic_vectors``, the external counts' columns) is not ``num_topics``
    long — the C code checks topic ids only against ``num_topics``.
    """
    lib = native.library()
    if lib is None:
        return None
    for array in (assignments, proposals, external_word_topic):
        if array is not None and not (
            array.dtype == np.int64 and array.flags.c_contiguous
        ):
            return None
    if not (assignments.flags.writeable and proposals.flags.writeable):
        return None
    if proposals.ndim != 2 or proposals.shape[1] != assignments.size:
        return None
    shapes = [np.shape(vector) for vector in topic_vectors]
    if external_word_topic is not None:
        shapes.append(external_word_topic.shape[1:])
    if any(shape != (num_topics,) for shape in shapes):
        return None
    return lib


def _run_chain(
    current: np.ndarray,
    proposals: np.ndarray,
    tokens: np.ndarray,
    mask: np.ndarray,
    row_counts: np.ndarray,
    prior: Optional[np.ndarray],
    prior_scalar: float,
    stale_topic_counts: np.ndarray,
    beta_sum: float,
    uniforms: np.ndarray,
    chain_stats: Optional[dict] = None,
) -> np.ndarray:
    """Accept/reject the ``M`` stored proposals for one bucket chunk.

    Implements Eq. (7): ``π = min{1, (C_rt + prior_t)(C_s + β̄) /
    ((C_rs + prior_s)(C_t + β̄))}`` with ``C_r`` the row's delayed counts and
    ``C`` the phase-frozen global topic counts.  The prior term is
    ``prior[topic]`` (α, document phase) or the constant ``prior_scalar``
    when ``prior`` is ``None`` (β, word phase).  ``uniforms`` holds the
    pre-drawn ``(M, R, L)`` acceptance uniforms.

    ``chain_stats`` (telemetry only, ``None`` by default) is a mutable
    ``{"proposed": int, "accepted": int}`` accumulator for MH acceptance
    counting; it never touches the RNG stream, so instrumented and plain
    runs stay bit-identical.
    """
    rows = np.arange(current.shape[0])[:, None]
    row_prior_current = prior_scalar if prior is None else prior[current]
    valid = int(np.count_nonzero(mask)) if chain_stats is not None else 0
    for step in range(uniforms.shape[0]):
        proposed = proposals[step][tokens]
        prior_proposed = prior_scalar if prior is None else prior[proposed]
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
        if prior is not None:
            row_prior_current = np.where(accept, prior_proposed, row_prior_current)
    return current


def _chain(
    lib,
    assignments: np.ndarray,
    proposals: np.ndarray,
    chunk: SlabBucket,
    num_topics: int,
    prior: Optional[np.ndarray],
    prior_scalar: float,
    stale_topic_counts: np.ndarray,
    beta_sum: float,
    uniforms: np.ndarray,
    external_word_topic: Optional[np.ndarray],
    chain_stats: Optional[dict],
) -> np.ndarray:
    """Run one chunk's MH chain and return its final ``(R, L)`` topics.

    Rebuilds each row's delayed counts from ``assignments`` (plus the
    row's ``external_word_topic`` counts when given), runs
    :func:`_run_chain`'s accept/reject on the pre-drawn ``uniforms`` and
    scatters the accepted topics back into ``assignments`` in place;
    ``chain_stats``, when given, accumulates the proposed/accepted counts.
    ``lib`` is the compiled library (:func:`_compiled`) or ``None`` for the
    NumPy body; both produce the same bits.
    """
    tokens, mask = chunk.tokens, chunk.mask
    if lib is None:
        current = assignments[tokens]
        row_counts = _row_counts(current, mask, num_topics)
        if external_word_topic is not None:
            row_counts += external_word_topic[chunk.rows]
        current = _run_chain(
            current, proposals, tokens, mask, row_counts, prior, prior_scalar,
            stale_topic_counts, beta_sum, uniforms, chain_stats,
        )
        assignments[tokens[mask]] = current[mask]
        return current

    tokens = np.ascontiguousarray(tokens, dtype=np.int64)
    mask = np.ascontiguousarray(mask, dtype=np.bool_)
    rows = np.ascontiguousarray(chunk.rows, dtype=np.int64)
    stale = np.ascontiguousarray(stale_topic_counts, dtype=np.float64)
    if prior is not None:
        prior = np.ascontiguousarray(prior, dtype=np.float64)
    current = np.empty(tokens.shape, dtype=np.int64)
    accepted = lib.warp_chain(
        tokens.shape[0], tokens.shape[1], num_topics, uniforms.shape[0],
        proposals.shape[1], tokens.ctypes.data, mask.ctypes.data,
        rows.ctypes.data, _address(external_word_topic), _address(prior),
        prior_scalar, stale.ctypes.data, beta_sum, uniforms.ctypes.data,
        proposals.ctypes.data, assignments.ctypes.data, current.ctypes.data,
    )
    if accepted == -1:
        raise MemoryError("warp_chain could not allocate its count scratch")
    if accepted == -2:
        raise ValueError(f"a topic id lies outside [0, {num_topics})")
    if chain_stats is not None:
        chain_stats["proposed"] += uniforms.shape[0] * int(np.count_nonzero(mask))
        chain_stats["accepted"] += accepted
    return current


def _address(array: Optional[np.ndarray]) -> Optional[int]:
    return None if array is None else array.ctypes.data


def _mixture_step(
    lib,
    proposals_step: np.ndarray,
    chunk: SlabBucket,
    current: np.ndarray,
    weight: np.ndarray,
    coin: np.ndarray,
    positions: np.ndarray,
    prior_topics: np.ndarray,
) -> None:
    """Write one step of a chunk's random-positioning proposals (Sec. 4.3).

    A real cell proposes its row's topic at ``positions`` when its ``coin``
    falls below the row's count ``weight``, else its ``prior_topics`` draw;
    ``proposals_step`` (one step's row of the proposal buffer) is written
    in place at the chunk's tokens.
    """
    tokens, mask = chunk.tokens, chunk.mask
    if lib is None:
        positioned = np.take_along_axis(current, positions, axis=1)
        drawn = np.where(coin < weight[:, None], positioned, prior_topics)
        proposals_step[tokens[mask]] = drawn[mask]
        return
    tokens = np.ascontiguousarray(tokens, dtype=np.int64)
    mask = np.ascontiguousarray(mask, dtype=np.bool_)
    lib.warp_mixture(
        tokens.shape[0], tokens.shape[1], tokens.ctypes.data, mask.ctypes.data,
        current.ctypes.data, weight.ctypes.data, coin.ctypes.data,
        positions.ctypes.data, prior_topics.ctypes.data,
        proposals_step.ctypes.data,
    )


def _word_chunk(
    lib,
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
    comes from the task-local ``rng``, in the same order for both tiers.
    """
    mask, lengths = chunk.mask, chunk.lengths
    shape = chunk.tokens.shape
    uniforms = rng.random((num_mh_steps,) + shape)
    current = _chain(
        lib, assignments, proposals, chunk, num_topics, None, beta,
        stale_topic_counts, beta_sum, uniforms, external_word_topic, chain_stats,
    )

    # Fresh c_w for the proposal distribution (Alg. 2 recomputes it
    # after the chain, before drawing q_word).
    if exact:
        flat_tokens = chunk.tokens[mask]
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
        word_weight = lengths / (lengths + num_topics * beta)
        for step in range(num_mh_steps):
            coin = rng.random(shape)
            positions = rng.integers(0, lengths[:, None], size=shape)
            uniform = rng.integers(num_topics, size=shape)
            _mixture_step(
                lib, proposals[step], chunk, current, word_weight, coin,
                positions, uniform,
            )


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
    lib = _compiled(
        assignments, proposals, num_topics, (stale_topic_counts,),
        external_word_topic,
    )
    task_rngs = pool.spawn_task_rngs(rng, len(chunks))
    per_task = [{"proposed": 0, "accepted": 0} for _ in chunks]
    tasks = [
        partial(
            _word_chunk,
            lib,
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
    lib,
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
    comes from the task-local ``rng``, in the same order for both tiers.
    """
    lengths = chunk.lengths
    shape = chunk.tokens.shape
    uniforms = rng.random((num_mh_steps,) + shape)
    current = _chain(
        lib, assignments, proposals, chunk, num_topics, alpha, 0.0,
        stale_topic_counts, beta_sum, uniforms, None, chain_stats,
    )

    doc_weight = lengths / (lengths + alpha_sum)
    for step in range(num_mh_steps):
        coin = rng.random(shape)
        positions = rng.integers(0, lengths[:, None], size=shape)
        if alpha_alias is None:
            prior = rng.integers(num_topics, size=shape)
        else:
            prior = alpha_alias.draw_many(coin.size, rng).reshape(shape)
        _mixture_step(
            lib, proposals[step], chunk, current, doc_weight, coin, positions, prior
        )


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
    lib = _compiled(
        assignments, proposals, num_topics, (stale_topic_counts, alpha)
    )
    task_rngs = pool.spawn_task_rngs(rng, len(chunks))
    per_task = [{"proposed": 0, "accepted": 0} for _ in chunks]
    tasks = [
        partial(
            _document_chunk,
            lib,
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
