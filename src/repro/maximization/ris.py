"""Reverse-influence sampling (RIS) for the IC model.

The possible-world identity behind the paper's Eq. (4) —
``sigma(S) = sum_u Pr[path(S, u) = 1]`` — also powers the modern
sampling line of IM algorithms (Borgs et al. SODA'14; Tang et al.'s
TIM/IMM): the probability that a *random* node ``u`` in a *random*
live-edge world is reachable from ``S`` equals ``sigma(S) / n``.
Sampling **reverse reachable (RR) sets** — the set of nodes that reach a
uniformly random target in one sampled world — turns influence
maximization into maximum coverage:

    sigma(S) ≈ n * (fraction of RR sets hit by S)

and greedy max-coverage over the sampled RR sets gives a
``(1 - 1/e - eps)`` guarantee with enough samples.  This module
implements the fixed-sample-size variant as the natural "future work"
bridge from the paper's possible-world analysis to the post-2011
state of the art, and serves as an independent check of the library's
Monte-Carlo IC machinery (the two estimate the same quantity by dual
routes; tests compare them).  The RR sets are the hash-keyed sketch
batches of :mod:`repro.core.sketch`, and
:meth:`~repro.core.sketch.SketchSet.estimate_spread` is the RR spread
estimator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, Mapping

from repro.core.sketch import (
    SketchSet,
    coverage_maximize,
    generate_sketches,
    sketch_generation_seed,
)
from repro.graphs.digraph import SocialGraph
from repro.kernels import resolve_backend
from repro.obs import trace as obs_trace
from repro.utils.rng import integer_seed
from repro.utils.validation import require

__all__ = ["RISResult", "ris_maximize"]

User = Hashable
Edge = tuple[User, User]


@dataclass
class RISResult:
    """Outcome of a RIS maximization run.

    Attributes
    ----------
    seeds:
        Selected seeds in selection order.
    gains:
        Estimated marginal spread of each seed when selected.
    spread:
        Estimated spread of the full seed set (same estimator).
    num_rr_sets:
        Number of RR sets the estimate is based on.
    """

    seeds: list[User] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    spread: float = 0.0
    num_rr_sets: int = 0


def _coverage_result(
    sketches: SketchSet,
    k: int,
    backend: str | None,
    checkpoints: list[tuple[int, float]] | None,
) -> RISResult:
    """Greedy coverage over a :class:`SketchSet`, wrapped as a result.

    Both coverage implementations return integer seed ids and integer
    cover gains, so the selection and every float the result carries
    (``gain * scale``, ``covered * scale``) are bit-identical across
    backends.  ``checkpoints`` entry ``i`` matches a cold run at
    ``k = i + 1`` — the :mod:`repro.store.prefix` contract.
    """
    if resolve_backend(backend) == "numpy":
        from repro.kernels.sketch_numpy import coverage_maximize_numpy

        seed_ids, gains = coverage_maximize_numpy(sketches, k)
    else:
        seed_ids, gains = coverage_maximize(sketches, k)
    result = RISResult(num_rr_sets=sketches.num_sketches)
    scale = (
        sketches.num_nodes / sketches.num_sketches
        if sketches.num_sketches
        else 0.0
    )
    covered = 0
    for seed_id, gain in zip(seed_ids, gains):
        result.seeds.append(sketches.label_of(seed_id))
        result.gains.append(gain * scale)
        covered += gain
        if checkpoints is not None:
            checkpoints.append((0, covered * scale))
    result.spread = covered * scale
    return result


def ris_maximize(
    graph: SocialGraph,
    probabilities: Mapping[Edge, float],
    k: int,
    num_rr_sets: int = 10_000,
    seed: int | random.Random | None = None,
    *,
    sketches: SketchSet | None = None,
    hops: int | None = None,
    backend: str | None = None,
    checkpoints: list[tuple[int, float]] | None = None,
) -> RISResult:
    """Select ``k`` seeds by greedy maximum coverage over RR sketches.

    Generates ``num_rr_sets`` deterministic hash-keyed sketches
    (:mod:`repro.core.sketch` / the batched NumPy kernel, picked by
    ``backend`` through the usual seam — both produce byte-identical
    sketches): ``seed`` feeds the shared
    :func:`~repro.utils.rng.derive_seed` schedule, so the same seed
    replays the same sketches on any backend or executor, and
    :meth:`SelectionContext.sketches
    <repro.api.context.SelectionContext.sketches>` with the same base
    seed yields the very same batch.  ``hops`` bounds the reverse BFS
    depth (``None`` = classic unbounded RIS); pass prebuilt
    ``sketches`` to amortise generation across runs.
    """
    require(k >= 0, f"k must be non-negative, got {k}")
    with obs_trace.span("maximize.ris", k=k) as span:
        if sketches is None:
            base = integer_seed(seed)
            generation_seed = (
                None
                if base is None
                else sketch_generation_seed(base, num_rr_sets, hops)
            )
            if resolve_backend(backend) == "numpy":
                from repro.kernels.sketch_numpy import CompiledSketcher

                sketches = CompiledSketcher.from_graph(
                    graph, probabilities
                ).generate(num_rr_sets, hops=hops, seed=generation_seed)
            else:
                sketches = generate_sketches(
                    graph,
                    probabilities,
                    num_rr_sets,
                    hops=hops,
                    seed=generation_seed,
                )
        result = _coverage_result(sketches, k, backend, checkpoints)
        span.set(seeds=len(result.seeds), num_rr_sets=result.num_rr_sets)
        return result
