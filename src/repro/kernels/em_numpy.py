"""NumPy kernel for Saito-EM learning of IC edge probabilities.

Same estimator as :func:`repro.probabilities.em.learn_ic_probabilities_em`
— bit-for-bit, not just "close": every floating-point operation of the
reference implementation is reproduced in the same order.

* The episodes are the compiled log's ``link_edge_ids``: one flat
  array of global edge ids (action order, chronological within an
  action, parents in :meth:`parents` order — the exact order the
  Python loops visit them), segmented by each trace position's link
  count.  The parameter edges are numbered through
  :func:`~repro.kernels.interning._first_seen`'s dense table over the
  edge ids, not by a sort.
* The per-episode failure product is ``np.multiply.reduceat`` over
  ``1 - p``, which folds each segment left-to-right exactly like the
  reference's running product.
* The credit sums are one weighted ``np.bincount`` over the flat
  parameter-index array, which adds sequentially in array order
  starting from 0.0 — the same accumulation order (and therefore the
  same float) as the Python dict loop.
* Failure episodes (``v`` acted, the social out-neighbour ``u`` never
  did) are counted per chunk of actions, sized like
  :class:`~repro.kernels.interning.CompiledLog`'s compile chunks: the
  chunk's performers are stamped into a ``(slot, node)`` buffer, their
  out-edges gathered once, and one ``bincount`` counts the edges whose
  target is unstamped, the out-CSR position serving as the edge id.

The returned ``EMResult.probabilities`` dict lists edges in first-
success-episode order — the same insertion order as the reference —
so order-sensitive consumers (e.g. the PT perturbation's RNG stream)
see identical streams under either backend.
"""

from __future__ import annotations

import numpy as np

from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import (
    CompiledGraph,
    CompiledLog,
    _first_seen,
    _gather_csr,
)
from repro.probabilities.em import _MIN_ACTIVATION_PROBABILITY, EMResult
from repro.utils.validation import require, require_probability

__all__ = ["learn_ic_probabilities_em_numpy"]


def _episode_arrays(
    compiled: CompiledLog,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the compiled log's success episodes.

    Returns ``(flat_edge_ids, episode_starts, episode_lengths)`` where
    ``flat_edge_ids`` concatenates every episode's parent-edge ids in
    reference order.  An episode is a trace position with parents, and
    links are grouped by child position, so the non-zero link counts
    come out in episode order.
    """
    link_counts = np.bincount(
        compiled.link_child, minlength=len(compiled.node_ids_flat)
    )
    episode_lengths = link_counts[link_counts > 0]
    episode_starts = np.zeros(len(episode_lengths), dtype=np.int64)
    if len(episode_lengths):
        np.cumsum(episode_lengths[:-1], out=episode_starts[1:])
    return compiled.link_edge_ids, episode_starts, episode_lengths


def _failure_counts(compiled: CompiledLog) -> np.ndarray:
    """Per-edge failure-episode counts (indexed by global edge id).

    One pass per chunk of actions: each performer is stamped at its
    ``(slot, node)`` key, where ``slot`` is its action's place in the
    chunk, and an out-edge of a performer is a failure episode when its
    target's key in the same slot is unstamped.
    """
    graph = compiled.graph
    n = graph.n
    counts = np.zeros(graph.num_edges, dtype=np.int64)
    chunk = CompiledLog._chunk_size(n)
    stamped = np.zeros(chunk * n, dtype=bool)
    offsets = compiled.offsets
    num_actions = len(offsets) - 1
    for start in range(0, num_actions, chunk):
        stop = min(start + chunk, num_actions)
        lo, hi = int(offsets[start]), int(offsets[stop])
        ids64 = compiled.node_ids_flat[lo:hi].astype(np.int64)
        slot_bases = np.repeat(
            np.arange(stop - start, dtype=np.int64) * n,
            np.diff(offsets[start:stop + 1]),
        )
        keys = slot_bases + ids64
        stamped[keys] = True
        rows, targets, edge_ids = _gather_csr(
            graph.out_indptr, graph.out_indices, ids64
        )
        if len(edge_ids):
            missed = ~stamped[slot_bases[rows] + targets]
            counts += np.bincount(
                edge_ids[missed], minlength=graph.num_edges
            )
        stamped[keys] = False  # reset the scratch buffer
    return counts


def learn_ic_probabilities_em_numpy(
    graph: SocialGraph,
    log: ActionLog,
    max_iterations: int = 30,
    tolerance: float = 1e-4,
    initial_probability: float = 0.1,
    compiled: CompiledLog | None = None,
) -> EMResult:
    """Vectorized EM — same signature and semantics as the reference.

    ``compiled`` lets callers (the
    :class:`~repro.api.context.SelectionContext`) reuse an existing
    :class:`CompiledLog` instead of interning the log again.
    """
    require(max_iterations >= 1, f"max_iterations must be >= 1, got {max_iterations}")
    require(tolerance > 0, f"tolerance must be positive, got {tolerance}")
    require_probability(initial_probability, "initial_probability")
    if compiled is None:
        compiled = CompiledLog(CompiledGraph(graph, log.users()), log)

    flat, episode_starts, episode_lengths = _episode_arrays(compiled)
    if len(flat) == 0:
        # No success episodes: the reference runs one trivial iteration
        # (max_delta = 0 < tolerance) and reports convergence.
        return EMResult(probabilities={}, iterations=1, converged=True)

    cgraph = compiled.graph
    param_edges, first_seen, param_idx = _first_seen(flat, cgraph.num_edges)
    success_counts = np.bincount(param_idx, minlength=len(param_edges))
    failures = _failure_counts(compiled)[param_edges]
    denominators = (success_counts + failures).astype(np.float64)

    probabilities = np.full(len(param_edges), float(initial_probability))
    # Link-sized buffers kept across rounds: with glibc's default
    # malloc, fresh multi-megabyte temporaries go back to the OS on free
    # and fault in again each round (about 40,600 minor page faults per
    # call on flixster_large's full log, against 250-2,900 with these).
    p_flat = np.empty(len(flat))
    scratch = np.empty(len(flat))
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        # mode="clip" writes straight into ``out`` ("raise" buffers a
        # copy first); every index is a valid rank, so nothing clips.
        np.take(probabilities, param_idx, out=p_flat, mode="clip")
        failure_products = np.multiply.reduceat(
            np.subtract(1.0, p_flat, out=scratch), episode_starts
        )
        activation = np.maximum(
            1.0 - failure_products, _MIN_ACTIVATION_PROBABILITY
        )
        credit = np.bincount(
            param_idx,
            weights=np.divide(
                p_flat, np.repeat(activation, episode_lengths), out=scratch
            ),
            minlength=len(param_edges),
        )
        updated = np.minimum(1.0, credit / denominators)
        max_delta = float(np.max(np.abs(updated - probabilities)))
        probabilities = updated
        if max_delta < tolerance:
            converged = True
            break
    del p_flat, scratch  # not live beside the result dict

    # Emit edges in first-success-episode order: the reference dict's
    # insertion order, which keeps downstream RNG streams (PT) aligned.
    emit_order = np.argsort(first_seen)
    result = dict(zip(
        cgraph.edges(param_edges[emit_order]),
        probabilities[emit_order].tolist(),
    ))
    return EMResult(
        probabilities=result, iterations=iterations, converged=converged
    )
