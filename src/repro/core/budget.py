"""Budgeted influence maximization under the CD model.

Problem 2 charges every seed the same price; real campaigns do not — a
celebrity endorsement costs more than a micro-influencer's.  Given a
cost per node and a total budget ``B``, the budgeted problem asks for
``S`` with ``sum_{x in S} cost(x) <= B`` maximizing ``sigma_cd(S)``.

This is exactly the setting of the paper's reference [12] (Leskovec et
al., KDD 2007, "cost-effective outbreak detection") from which the CELF
optimisation originates.  Their CEF rule is implemented here:

* the **benefit** pass greedily adds the affordable node with the
  largest marginal gain (costs ignored in the ranking);
* the **ratio** pass greedily adds the affordable node with the largest
  marginal gain *per unit cost*;
* the returned solution is whichever of the two achieves the larger
  ``sigma_cd``.

Either pass alone can be arbitrarily bad, but their maximum is a
``(1 - 1/e) / 2`` approximation of the budgeted optimum (Leskovec et
al. 2007, building on Khuller, Moss & Naor 1999).  Each pass is a run
of the CD CELF loop — lazy evaluation is sound for the ratio ranking
too, because dividing a submodularly-shrinking gain by a constant cost
keeps stale priorities upper bounds.

Unaffordable candidates are discarded permanently when popped: the
remaining budget only shrinks, so a node too expensive now stays too
expensive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping

from repro.core.index import CreditIndex
from repro.core.maximize import _celf_loop, _engine
from repro.obs import trace as obs_trace
from repro.utils.validation import require

__all__ = ["BudgetResult", "cd_budget_maximize"]

User = Hashable


@dataclass
class BudgetResult:
    """Outcome of a :func:`cd_budget_maximize` run.

    Attributes
    ----------
    seeds:
        Selected seeds, in selection order, from the winning pass.
    gains:
        Marginal ``sigma_cd`` gain of each seed when selected.
    costs:
        Cost of each selected seed (aligned with ``seeds``).
    spread:
        ``sigma_cd`` of the selected set.
    budget:
        The budget given.
    spent:
        Total cost of the selected seeds (``<= budget``).
    rule:
        Which pass won: ``"benefit"`` (cost-blind ranking) or
        ``"ratio"`` (gain-per-cost ranking).
    oracle_calls:
        Marginal-gain evaluations across *both* passes.
    elapsed_seconds:
        Wall-clock time across both passes.
    """

    seeds: list[User] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    spread: float = 0.0
    budget: float = 0.0
    spent: float = 0.0
    rule: str = "benefit"
    oracle_calls: int = 0
    elapsed_seconds: float = 0.0


def _budget_pass(
    index: CreditIndex,
    budget: float,
    cost: Callable[[User], float],
    by_ratio: bool,
    backend: str | None = None,
) -> BudgetResult:
    """One CEF pass over a private copy of ``index``: the CELF loop,
    ranking by gain (benefit) or gain/cost (ratio), until nothing
    affordable with a positive gain is left."""
    rule = "ratio" if by_ratio else "benefit"
    with obs_trace.span("maximize.cd", budget=budget, rule=rule) as span:
        result = BudgetResult(budget=budget, rule=rule)
        _celf_loop(
            _engine(index.copy(), None, backend), result, span,
            stop_at_zero=True, cost=cost, budget=budget, by_ratio=by_ratio,
        )
    return result


def cd_budget_maximize(
    index: CreditIndex,
    budget: float,
    costs: Mapping[User, float] | None = None,
    default_cost: float = 1.0,
    *,
    backend: str | None = None,
) -> BudgetResult:
    """Select seeds maximizing ``sigma_cd`` subject to a cost budget.

    Parameters
    ----------
    index:
        The credit index produced by
        :func:`repro.core.scan.scan_action_log`.  Never mutated — both
        passes work on private copies.
    budget:
        Total budget ``B >= 0``.
    costs:
        Per-node cost; nodes absent from the mapping cost
        ``default_cost``.  All costs must be positive.
    default_cost:
        Cost of nodes not listed in ``costs`` (must be positive).
    backend:
        As in :func:`~repro.core.maximize.cd_maximize`.
    """
    require(budget >= 0.0, f"budget must be non-negative, got {budget}")
    require(default_cost > 0.0, f"default_cost must be positive, got {default_cost}")
    cost_map = dict(costs) if costs is not None else {}
    for user, cost in cost_map.items():
        require(cost > 0.0, f"cost of {user!r} must be positive, got {cost}")
    started = time.perf_counter()
    price = {user: cost_map.get(user, default_cost) for user in index.users()}
    passes = [
        _budget_pass(index, budget, price.__getitem__, by_ratio, backend)
        for by_ratio in (False, True)
    ]
    # The benefit pass wins ties.
    result = max(passes, key=lambda run: sum(run.gains))
    result.spread = sum(result.gains)
    result.spent = sum(result.costs)
    result.oracle_calls = sum(run.oracle_calls for run in passes)
    result.elapsed_seconds = time.perf_counter() - started
    return result
