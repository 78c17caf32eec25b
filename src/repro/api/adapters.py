"""Registry adapters for every selection algorithm in the library.

Each adapter is a thin shim from the registry calling convention
``(context, k, **params)`` onto the algorithm's original public
function — the originals are wrapped, never forked, so registry
dispatch returns exactly the seeds a direct call would.

Adapters that support runtime-vs-k instrumentation (``time_log``)
report entries *including* the time spent lazily building the artifacts
they triggered (probability learning, the index scan): that is the cost
a user actually pays to get ``k`` seeds from cold, and it is what the
paper's Figure-7 comparison charges each method with.
"""

from __future__ import annotations

import time

from repro.api.context import SelectionContext
from repro.api.registry import register_selector
from repro.api.results import SeedSelection
from repro.core.budget import cd_budget_maximize
from repro.core.maximize import cd_maximize
from repro.maximization.celf import celf_maximize
from repro.maximization.degree_discount import (
    degree_discount_ic_seeds,
    single_discount_seeds,
)
from repro.maximization.greedy import greedy_maximize
from repro.maximization.heuristics import high_degree_seeds, pagerank_seeds
from repro.maximization.irie import irie_seeds
from repro.maximization.ris import ris_maximize
from repro.maximization.simpath import simpath_maximize

__all__: list[str] = []


def _merge_time_log(
    time_log: list[tuple[int, float]] | None,
    inner: list[tuple[int, float]] | None,
    offset: float,
) -> None:
    """Shift ``inner`` entries by the artifact-build ``offset`` seconds."""
    if time_log is not None and inner is not None:
        time_log.extend(
            (count, offset + elapsed) for count, elapsed in inner
        )


# ----------------------------------------------------------------------
# The CD model (this paper)
# ----------------------------------------------------------------------
@register_selector(
    "cd",
    family="cd",
    description="Credit-distribution maximizer (Algorithms 3-5, this paper)",
    needs_index=True,
    supports_time_log=True,
)
def _cd(
    ctx: SelectionContext,
    k: int,
    *,
    time_log=None,
    checkpoints=None,
    state=None,
    state_out=None,
):
    started = time.perf_counter()
    index = ctx.credit_index()
    offset = time.perf_counter() - started
    inner = [] if time_log is not None else None
    result = cd_maximize(
        index,
        k,
        mutate=False,
        time_log=inner,
        checkpoints=checkpoints,
        state=state,
        state_out=state_out,
        backend=ctx.backend,
    )
    _merge_time_log(time_log, inner, offset)
    return result


@register_selector(
    "cd_budget",
    family="cd",
    description="Budgeted CD maximizer under per-seed costs (CEF rule, "
                "Leskovec et al., KDD 2007)",
    needs_index=True,
    supports_budget=True,
)
def _cd_budget(
    ctx: SelectionContext,
    k: int,
    *,
    budget: float | None = None,
    cost_scale: float = 0.0,
):
    """Budgeted selection: the cost cap, not ``k``, bounds the seed set.

    ``budget`` defaults to ``float(k)`` — under the default unit costs
    that makes the budgeted problem coincide with size-``k`` selection,
    so the selector is runnable without parameters.  ``cost_scale > 0``
    prices each user as ``1 + activity/cost_scale`` (the analytics
    CLI's convention); ``0`` means unit costs.
    """
    if budget is None:
        budget = float(k)
    index = ctx.credit_index()
    costs = None
    if cost_scale > 0.0:
        costs = {
            user: 1.0 + index.activity[user] / cost_scale
            for user in index.users()
        }
    result = cd_budget_maximize(index, budget, costs, backend=ctx.backend)
    return SeedSelection(
        seeds=list(result.seeds),
        gains=list(result.gains),
        spread=result.spread,
        oracle_calls=result.oracle_calls,
        metadata={
            "budget": result.budget,
            "spent": result.spent,
            "rule": result.rule,
            "costs": list(result.costs),
        },
    )


# ----------------------------------------------------------------------
# The greedy family over a spread oracle
# ----------------------------------------------------------------------
def _oracle_family(
    ctx, k, maximizer, model, method, seed, time_log,
    checkpoints=None, state=None, state_out=None,
):
    started = time.perf_counter()
    oracle = ctx.oracle(model, method=method, seed=seed)
    offset = time.perf_counter() - started
    executor = ctx.executor
    if maximizer is greedy_maximize:
        return greedy_maximize(
            oracle, k, executor=executor, checkpoints=checkpoints
        )
    inner = [] if time_log is not None else None
    result = maximizer(
        oracle,
        k,
        time_log=inner,
        executor=executor,
        checkpoints=checkpoints,
        state=state,
        state_out=state_out,
    )
    _merge_time_log(time_log, inner, offset)
    return result


@register_selector(
    "greedy",
    family="mc",
    description="Plain (1-1/e) greedy over a spread oracle (Algorithm 1)",
    needs_oracle=True,
    stochastic=True,
)
def _greedy(
    ctx: SelectionContext,
    k: int,
    *,
    model: str = "cd",
    method: str | None = None,
    seed: int | None = None,
    checkpoints=None,
):
    return _oracle_family(
        ctx, k, greedy_maximize, model, method, seed, None,
        checkpoints=checkpoints,
    )


@register_selector(
    "celf",
    family="mc",
    description="CELF lazy-forward greedy (Leskovec et al., KDD 2007)",
    needs_oracle=True,
    supports_time_log=True,
    stochastic=True,
)
def _celf(
    ctx: SelectionContext,
    k: int,
    *,
    model: str = "cd",
    method: str | None = None,
    seed: int | None = None,
    time_log=None,
    checkpoints=None,
    state=None,
    state_out=None,
):
    return _oracle_family(
        ctx, k, celf_maximize, model, method, seed, time_log,
        checkpoints=checkpoints, state=state, state_out=state_out,
    )


# ----------------------------------------------------------------------
# Sampling / path-enumeration estimators
# ----------------------------------------------------------------------
@register_selector(
    "ris",
    family="sketch",
    description="Reverse-influence sampling for IC (Borgs et al. / TIM line)",
    needs_probabilities=True,
    needs_sketches=True,
    stochastic=True,
)
def _ris(
    ctx: SelectionContext,
    k: int,
    *,
    method: str | None = None,
    num_rr_sets: int = 10_000,
    seed: int | None = None,
    hops: int | None = None,
    checkpoints=None,
):
    """Greedy coverage over the context's deterministic sketch batch.

    The sketches come from :meth:`SelectionContext.sketches`, which
    builds and caches the bound batch, and the coverage maximization
    dispatches through the backend seam.  With
    the same base seed this is bit-identical to a direct
    :func:`~repro.maximization.ris.ris_maximize` call.
    """
    sketches = ctx.sketches(
        method=method, num_sketches=num_rr_sets, hops=hops, seed=seed
    )
    return ris_maximize(
        ctx.graph,
        ctx.ic_probabilities(method),
        k,
        sketches=sketches,
        backend=ctx.backend,
        checkpoints=checkpoints,
    )


@register_selector(
    "hop",
    family="sketch",
    description="Hop-limited RR-sketch coverage (1/2-hop bounds, "
                "Tang et al. 2017)",
    needs_probabilities=True,
    needs_sketches=True,
    stochastic=True,
)
def _hop(
    ctx: SelectionContext,
    k: int,
    *,
    method: str | None = None,
    num_sketches: int = 10_000,
    hops: int = 2,
    seed: int | None = None,
    checkpoints=None,
):
    """RIS with the reverse BFS truncated at ``hops`` edges.

    Trades a small downward spread bias for bounded work per sketch —
    the million-node fast path when cascades are short.
    """
    sketches = ctx.sketches(
        method=method, num_sketches=num_sketches, hops=hops, seed=seed
    )
    return ris_maximize(
        ctx.graph,
        ctx.ic_probabilities(method),
        k,
        sketches=sketches,
        backend=ctx.backend,
        checkpoints=checkpoints,
    )


@register_selector(
    "simpath",
    family="sketch",
    description="SimPath simple-path enumeration for LT (Goyal et al., ICDM 2011)",
    needs_weights=True,
)
def _simpath(ctx: SelectionContext, k: int, *, eta: float = 1e-3):
    return simpath_maximize(ctx.graph, ctx.lt_weights(), k, eta=eta)


# ----------------------------------------------------------------------
# Model-based heuristics
# ----------------------------------------------------------------------
@register_selector(
    "pmia",
    family="heuristic",
    description="PMIA arborescence heuristic for IC (Chen et al., KDD 2010)",
    needs_probabilities=True,
)
def _pmia(
    ctx: SelectionContext,
    k: int,
    *,
    method: str | None = None,
    theta: float = 1.0 / 320.0,
):
    return ctx.pmia_model(method, theta=theta).select_seeds(k)


@register_selector(
    "ldag",
    family="heuristic",
    description="LDAG local-DAG heuristic for LT (Chen et al., ICDM 2010)",
    needs_weights=True,
)
def _ldag(ctx: SelectionContext, k: int, *, theta: float = 1.0 / 320.0):
    return ctx.ldag_model(theta=theta).select_seeds(k)


@register_selector(
    "irie",
    family="heuristic",
    description="IRIE rank-and-estimate heuristic for IC (Jung et al., ICDM 2012)",
    needs_probabilities=True,
)
def _irie(
    ctx: SelectionContext,
    k: int,
    *,
    method: str | None = None,
    alpha: float = 0.7,
    iterations: int = 20,
):
    return irie_seeds(
        ctx.graph,
        ctx.ic_probabilities(method),
        k,
        alpha=alpha,
        iterations=iterations,
    )


# ----------------------------------------------------------------------
# Structural heuristics (no training log required)
# ----------------------------------------------------------------------
@register_selector(
    "high_degree",
    family="heuristic",
    description="Top-k nodes by degree (Figure-6 structural baseline)",
)
def _high_degree(ctx: SelectionContext, k: int, *, direction: str = "out"):
    return high_degree_seeds(ctx.graph, k, direction=direction)


@register_selector(
    "pagerank",
    family="heuristic",
    description="Top-k nodes by PageRank (Figure-6 structural baseline)",
)
def _pagerank(ctx: SelectionContext, k: int, *, damping: float = 0.85):
    return pagerank_seeds(ctx.graph, k, damping=damping)


@register_selector(
    "single_discount",
    family="heuristic",
    description="SingleDiscount degree heuristic (Chen et al., KDD 2009)",
)
def _single_discount(ctx: SelectionContext, k: int):
    return single_discount_seeds(ctx.graph, k)


@register_selector(
    "degree_discount",
    family="heuristic",
    description="DegreeDiscountIC heuristic (Chen et al., KDD 2009)",
)
def _degree_discount(
    ctx: SelectionContext, k: int, *, probability: float = 0.01
):
    return degree_discount_ic_seeds(ctx.graph, k, probability=probability)
