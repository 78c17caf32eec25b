"""NumPy kernel for Saito-EM learning of IC edge probabilities.

Same estimator as :func:`repro.probabilities.em.learn_ic_probabilities_em`
— bit-for-bit, not just "close": every floating-point operation of the
reference implementation is reproduced in the same order.

* The episodes are the compiled log's ``link_edge_ids``: one flat
  array of global edge ids (action order, chronological within an
  action, parents in :meth:`parents` order — the exact order the
  Python loops visit them), segmented by each trace position's link
  count.
* The per-episode failure product is ``np.multiply.reduceat`` over
  ``1 - p``, which folds each segment left-to-right exactly like the
  reference's running product.
* The credit scatter is ``np.add.at`` with the flat parameter-index
  array, which applies its additions sequentially in array order —
  the same accumulation order (and therefore the same float) as the
  Python dict loop.
* Failure episodes (``v`` acted, the social out-neighbour ``u`` never
  did) are counted with one CSR gather + ``bincount`` per action, the
  out-CSR position serving directly as the edge id.

The returned ``EMResult.probabilities`` dict lists edges in first-
success-episode order — the same insertion order as the reference —
so order-sensitive consumers (e.g. the PT perturbation's RNG stream)
see identical streams under either backend.
"""

from __future__ import annotations

import numpy as np

from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels.interning import CompiledGraph, CompiledLog, _gather_csr
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
    """Per-edge failure-episode counts (indexed by global edge id)."""
    graph = compiled.graph
    counts = np.zeros(graph.num_edges, dtype=np.int64)
    performed = np.zeros(graph.n, dtype=bool)
    offsets = compiled.offsets.tolist()
    for lo, hi in zip(offsets, offsets[1:]):
        ids64 = compiled.node_ids_flat[lo:hi].astype(np.int64)
        performed[ids64] = True
        _, target_ids, edge_ids = _gather_csr(
            graph.out_indptr, graph.out_indices, ids64
        )
        if len(edge_ids):
            missed = ~performed[target_ids.astype(np.int64)]
            counts += np.bincount(
                edge_ids[missed], minlength=graph.num_edges
            )
        performed[ids64] = False  # reset the scratch buffer
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

    param_edges, first_seen = np.unique(flat, return_index=True)
    param_idx = np.searchsorted(param_edges, flat)
    success_counts = np.bincount(param_idx, minlength=len(param_edges))
    failures = _failure_counts(compiled)[param_edges]
    denominators = (success_counts + failures).astype(np.float64)

    probabilities = np.full(len(param_edges), float(initial_probability))
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        p_flat = probabilities[param_idx]
        failure_products = np.multiply.reduceat(1.0 - p_flat, episode_starts)
        activation = np.maximum(
            1.0 - failure_products, _MIN_ACTIVATION_PROBABILITY
        )
        credit = np.zeros(len(param_edges))
        np.add.at(credit, param_idx, p_flat / np.repeat(activation, episode_lengths))
        updated = np.minimum(1.0, credit / denominators)
        max_delta = float(np.max(np.abs(updated - probabilities)))
        probabilities = updated
        if max_delta < tolerance:
            converged = True
            break

    # Emit edges in first-success-episode order: the reference dict's
    # insertion order, which keeps downstream RNG streams (PT) aligned.
    emit_order = np.argsort(first_seen, kind="stable")
    values = compiled.graph.idmap.values
    src_ids, dst_ids = compiled.graph.edge_endpoints(param_edges)
    result: dict[tuple, float] = {}
    for position in emit_order:
        edge = (values[src_ids[position]], values[dst_ids[position]])
        result[edge] = float(probabilities[position])
    return EMResult(
        probabilities=result, iterations=iterations, converged=converged
    )
