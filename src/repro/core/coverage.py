"""Seed minimization under the CD model: the dual of Problem 2.

Influence maximization fixes the number of seeds ``k`` and maximizes the
spread.  A campaign planner usually faces the dual question: *how few
seeds does it take to reach a target spread?*  Because ``sigma_cd`` is
monotone and submodular (Theorem 2), the greedy that keeps adding the
largest-marginal-gain node until the target is met is the classic
submodular set-cover algorithm (Wolsey 1982): to reach
``target - epsilon`` it never uses more than
``|OPT| * (1 + ln(sigma_cd(V) / epsilon))`` seeds, where ``OPT`` is the
smallest set whose spread reaches the target.

The implementation is the CD CELF loop of :mod:`repro.core.maximize`
with a spread target for its stopping rule, so covering a target is
exactly as cheap per seed as maximizing, and the selected prefix is the
same greedy sequence ``cd_maximize`` would produce
(``tests/test_coverage.py`` pins that equivalence).

The ceiling of reachable spread is ``len(index.activity)``: seeding every
active user gives ``kappa_{S,u} = 1`` for each of them, so no target
above the number of active users is attainable and :func:`cd_cover`
reports ``reached = False`` for such targets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable

from repro.core.index import CreditIndex
from repro.core.maximize import _celf_loop, _engine
from repro.obs import trace as obs_trace
from repro.utils.validation import require, require_non_negative

__all__ = ["CoverageResult", "cd_cover"]

User = Hashable


@dataclass
class CoverageResult:
    """Outcome of a :func:`cd_cover` run.

    Attributes
    ----------
    seeds:
        Selected seed nodes, in selection order (a greedy prefix — the
        same order :func:`repro.core.maximize.cd_maximize` produces).
    gains:
        Marginal ``sigma_cd`` gain of each seed when selected
        (non-increasing, by submodularity).
    spread:
        ``sigma_cd`` of the full selected set.
    target:
        The requested spread target.
    reached:
        Whether ``spread >= target``.  False means the target is not
        attainable within ``max_seeds`` (or at all, if the target
        exceeds the number of active users).
    oracle_calls:
        Number of Theorem-3 marginal-gain evaluations performed.
    elapsed_seconds:
        Wall-clock time of the selection loop.
    """

    seeds: list[User] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    spread: float = 0.0
    target: float = 0.0
    reached: bool = False
    oracle_calls: int = 0
    elapsed_seconds: float = 0.0

    def trajectory(self) -> list[tuple[int, float]]:
        """``(seed_count, cumulative_spread)`` after each selection."""
        points = []
        total = 0.0
        for count, gain in enumerate(self.gains, start=1):
            total += gain
            points.append((count, total))
        return points


def cd_cover(
    index: CreditIndex,
    target: float,
    max_seeds: int | None = None,
    mutate: bool = False,
) -> CoverageResult:
    """Select the greedy seed set whose ``sigma_cd`` reaches ``target``.

    Parameters
    ----------
    index:
        The credit index produced by
        :func:`repro.core.scan.scan_action_log`.
    target:
        The spread to reach.  ``target <= 0`` is trivially covered by
        the empty set.
    max_seeds:
        Optional cap on the number of seeds; selection stops there even
        if the target is not reached (``reached`` reports which).
        Defaults to the number of active users (the exhaustive limit).
    mutate:
        As in :func:`~repro.core.maximize.cd_maximize`: consume the
        index destructively instead of copying it first.

    Returns
    -------
    :class:`CoverageResult`; ``result.seeds`` is minimal in the greedy
    sense (dropping its last seed would leave the target uncovered).
    """
    require_non_negative(target, "target")
    if max_seeds is not None:
        require(max_seeds >= 0, f"max_seeds must be non-negative, got {max_seeds}")
    started = time.perf_counter()
    result = CoverageResult(target=target)
    if target > 0.0:
        with obs_trace.span("maximize.cd", target=target) as span:
            working = index if mutate else index.copy()
            _celf_loop(
                _engine(working, None, None), result, span,
                k=len(working.activity) if max_seeds is None else max_seeds,
                target=target, stop_at_zero=True,
            )
    result.reached = result.spread >= target
    result.elapsed_seconds = time.perf_counter() - started
    return result
