"""Algorithm 1: the plain greedy seed-selection algorithm.

For a monotone submodular spread function with ``f(empty) = 0``, greedily
adding the node with the largest marginal gain achieves a
``(1 - 1/e)``-approximation of the optimum (Nemhauser et al. 1978) — the
guarantee both the standard approach and the CD model inherit.

This implementation evaluates every candidate in every iteration (k * n
oracle calls); :mod:`repro.maximization.celf` is the drop-in replacement
that avoids most of them.

The per-iteration candidate sweep is embarrassingly parallel — every
``sigma(S + {v})`` evaluation is independent, and the Monte-Carlo
oracles re-seed deterministically per seed set — so an optional
:class:`~repro.runtime.executor.Executor` can fan the sweep out to
workers with bit-identical results (the argmax is still taken in
candidate order in the parent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.maximization.oracle import SpreadOracle
from repro.obs import trace as obs_trace
from repro.utils.validation import require

__all__ = ["GreedyResult", "greedy_maximize"]

User = Hashable


def _spread_chunk(payload: tuple) -> list[float]:
    """Worker task: ``oracle.spread(base + [node])`` per node of a chunk.

    Module-level (picklable) and shared with CELF's initial sweep.
    ``base`` is materialised by the caller so every executor
    evaluates exactly the same seed lists.
    """
    oracle, base, nodes = payload
    return [oracle.spread(base + [node]) for node in nodes]


def _sweep(oracle, base: list[User], nodes: list[User], executor) -> list[float]:
    """Candidate-sweep spreads, in ``nodes`` order, on any executor."""
    if (
        executor is None
        or not getattr(executor, "is_parallel", False)
        or len(nodes) <= 1
    ):
        return _spread_chunk((oracle, base, nodes))
    from repro.runtime.executor import split_chunks

    chunks = split_chunks(nodes, executor.workers())
    results = executor.map(
        _spread_chunk, [(oracle, base, chunk) for chunk in chunks]
    )
    return [spread for chunk in results for spread in chunk]


@dataclass
class GreedyResult:
    """Outcome of a greedy run.

    Attributes
    ----------
    seeds:
        Selected seed nodes, in selection order.
    gains:
        Marginal spread gain of each seed at the time it was selected
        (non-increasing, by submodularity).
    spread:
        Expected spread of the full seed set.
    oracle_calls:
        Number of spread evaluations performed.
    """

    seeds: list[User] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    spread: float = 0.0
    oracle_calls: int = 0

    def seeds_at(self, k: int) -> list[User]:
        """The first ``k`` selected seeds (greedy prefixes are nested)."""
        return self.seeds[:k]


def greedy_maximize(
    oracle: SpreadOracle,
    k: int,
    candidates: Iterable[User] | None = None,
    executor=None,
    *,
    checkpoints: list[tuple[int, float]] | None = None,
) -> GreedyResult:
    """Select ``k`` seeds by plain greedy (Algorithm 1).

    Parameters
    ----------
    oracle:
        The spread function ``sigma_m``.
    k:
        Seed-set size; capped at the number of candidates.
    candidates:
        Candidate universe; defaults to ``oracle.candidates()``.
    executor:
        Optional :class:`~repro.runtime.executor.Executor` for the
        per-iteration candidate sweep; the selected seeds are identical
        on every executor.
    checkpoints:
        If given, ``(oracle_calls, spread)`` is appended right after
        each selection.  Greedy's trace up to the j-th pick is the same
        for every ``k >= j``, so entry ``i`` is exactly what a cold run
        at ``k = i + 1`` reports — the property the persisted prefix
        artifacts (:mod:`repro.store.prefix`) rely on.
    """
    require(k >= 0, f"k must be non-negative, got {k}")
    with obs_trace.span("maximize.greedy", k=k) as span:
        pool = list(oracle.candidates() if candidates is None else candidates)
        result = GreedyResult()
        current_spread = 0.0
        selected: set[User] = set()
        for _ in range(min(k, len(pool))):
            remaining = [node for node in pool if node not in selected]
            if not remaining:
                break
            spreads = _sweep(oracle, list(selected), remaining, executor)
            result.oracle_calls += len(remaining)
            best_node = None
            best_spread = float("-inf")
            for node, candidate_spread in zip(remaining, spreads):
                if candidate_spread > best_spread:
                    best_spread = candidate_spread
                    best_node = node
            selected.add(best_node)
            result.seeds.append(best_node)
            result.gains.append(best_spread - current_spread)
            current_spread = best_spread
            if checkpoints is not None:
                checkpoints.append((result.oracle_calls, current_spread))
        result.spread = current_spread
        span.set(oracle_calls=result.oracle_calls, seeds=len(result.seeds))
        return result
