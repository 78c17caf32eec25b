"""Algorithms 3-5: influence maximization under the CD model.

Greedy with the CELF lazy-forward optimisation, where marginal gains
come from Theorem 3 instead of Monte Carlo simulation:

    sigma_cd(S + x) - sigma_cd(S)
        = sum_a (1 - Gamma_{S,x}(a)) * sum_u (1/A_u) Gamma^{V-S}_{x,u}(a)

The inner sum reads straight off the credit index (``UC[x][a]``); the
``(1 - Gamma_{S,x}(a))`` factor reads off the seed credits (``SC``).
When a node joins the seed set, Lemma 3 folds its credits into SC and
Lemma 2 re-roots every remaining credit on paths avoiding it — both in
time proportional to the credits touching the new seed, never by
re-scanning the log.

One CELF loop (:func:`_celf_loop`) serves :func:`cd_maximize`,
:func:`repro.core.coverage.cd_cover` and
:func:`repro.core.budget.cd_budget_maximize`; only its stopping rule
differs.

One deliberate correction to the paper's pseudocode:
Algorithm 4 as printed adds the self-credit term ``1/A_x`` only for
actions where ``x`` has outgoing credit; consistency with Theorem 3 and
with ``kappa_{S,u} = 1`` for seeds (used by the NP-hardness proof)
requires it for *every* action ``x`` performed.  The corrected base term
is ``1 - (sum_a Gamma_{S,x}(a)) / A_x``, and
``tests/test_cd_maximize.py`` verifies the resulting gains against
brute-force recomputation of ``sigma_cd``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Hashable

from repro.core.index import CreditIndex, SeedCredits
from repro.kernels import resolve_backend
from repro.maximization.greedy import GreedyResult
from repro.obs import trace as obs_trace
from repro.utils.pqueue import LazyQueue
from repro.utils.validation import require

__all__ = ["cd_maximize", "marginal_gain", "CDState"]

User = Hashable


@dataclass
class CDState:
    """CD-maximizer machine state right after a selection.

    Holds the partially-consumed working index and seed credits (the
    algorithm mutates both as seeds are absorbed), the lazy queue
    snapshot, and the trajectory so far.  Resuming copies the index and
    credits, so a cached state stays pristine.
    """

    index: CreditIndex
    seed_credits: SeedCredits
    queue: dict[str, Any]
    seeds: list = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    spread: float = 0.0
    oracle_calls: int = 0


def marginal_gain(index: CreditIndex, seed_credits: SeedCredits, node: User) -> float:
    """Theorem-3 marginal gain of ``node`` w.r.t. the current seed set.

    ``sum_{a in actions(x)} (1 - Gamma_{S,x}(a)) *
    (1/A_x + sum_u UC[x][a][u] / A_u)`` — the ``1/A_x`` part summed in
    closed form as ``1 - total_seed_credit(x) / A_x``.  The inner sums
    walk ``node``'s row, one action segment at a time.
    """
    user = index.user_ids.get(node)
    if user is None:
        return 0.0
    counts = index.counts
    gain = 1.0 - seed_credits.total(node) / counts[user]
    for action, entries in groupby(index.row_ids(user), itemgetter(0)):
        term = 0.0
        for _, target, value in entries:
            term += value / counts[target]
        factor = 1.0 - seed_credits.get(node, index.action_of[action])
        if factor > 0.0:
            gain += factor * term
    return gain


def _absorb_seed(
    index: CreditIndex, seed_credits: SeedCredits, seed: User
) -> tuple[int, int]:
    """Algorithm 5: fold ``seed`` into S, updating UC and SC in place.

    Returns ``(lemma3_adds, lemma2_updates)``: the seed-credit
    increments made and the entries Lemma 2 changed or deleted.
    """
    adds = 0
    user = index.user_ids.get(seed)
    if user is not None:
        # Lemma 3 first — it needs the pre-update credit values:
        # Gamma_{S+x,u}(a) = Gamma_{S,u}(a) + Gamma^{V-S}_{x,u}(a) (1 - Gamma_{S,x}(a)).
        for action_id, entries in groupby(index.row_ids(user), itemgetter(0)):
            action = index.action_of[action_id]
            factor = 1.0 - seed_credits.get(seed, action)
            if factor <= 0.0:
                continue
            for _, target, value in entries:
                seed_credits.add(index.user_of[target], action, value * factor)
                adds += 1
    # Lemma 2: remove, from every remaining pair, the credit that flowed
    # through the new seed.
    updates = index.discount_through(seed)
    # The seed leaves V - S: its remaining in/out credits are dead.
    index.remove_user(seed)
    seed_credits.drop_user(seed)
    return adds, updates


class _ReferenceEngine:
    """The CD selectors' python engine: :func:`marginal_gain` and
    :func:`_absorb_seed` over the working index, with the numpy engine's
    interface (:class:`repro.kernels.cd_numpy.CDEngine`)."""

    def __init__(self, index: CreditIndex, seed_credits: SeedCredits) -> None:
        self._index = index
        self._seed_credits = seed_credits
        self.lemma2_updates = 0
        self.lemma3_adds = 0

    def initial_gains(
        self, admits: Callable[[User], bool] | None = None
    ) -> list[tuple[User, float]]:
        index, seed_credits = self._index, self._seed_credits
        return [
            (user, marginal_gain(index, seed_credits, user))
            for user in list(index.users())
            if admits is None or admits(user)
        ]

    def gain(self, node: User) -> float:
        return marginal_gain(self._index, self._seed_credits, node)

    def absorb(self, seed: User) -> None:
        adds, updates = _absorb_seed(self._index, self._seed_credits, seed)
        self.lemma3_adds += adds
        self.lemma2_updates += updates

    def seed_credits(self) -> SeedCredits:
        return self._seed_credits


def _engine(
    index: CreditIndex, seed_credits: SeedCredits | None, backend: str | None
) -> Any:
    """The backend's engine over ``index``, from ``seed_credits`` (never
    mutated; ``None`` for a cold run)."""
    if resolve_backend(backend) == "numpy":
        from repro.kernels.cd_numpy import CDEngine

        return CDEngine(index, seed_credits)
    return _ReferenceEngine(index, (seed_credits or SeedCredits()).copy())


def _celf_loop(
    engine: Any,
    result: Any,
    span: Any,
    queue: LazyQueue | None = None,
    *,
    k: float = math.inf,
    target: float = math.inf,
    stop_at_zero: bool = False,
    cost: Callable[[User], float] | None = None,
    budget: float = math.inf,
    by_ratio: bool = False,
    picked: Callable[[], None] | None = None,
) -> LazyQueue:
    """Algorithm 3's CELF loop over ``engine`` (cold without a ``queue``).

    Picks go to ``result`` (``costs`` too under a ``cost``), then to
    ``picked``.  It stops at ``k`` seeds, a ``spread`` that reaches
    ``target``, a spent ``budget`` or an empty queue, and with
    ``stop_at_zero`` at the first fresh gain ``<= 0``.  Under a positive
    ``cost`` the sweep computes gains only for users who fit in
    ``budget``, a popped user over what is left is dropped for good, and
    ``by_ratio`` ranks by gain/cost and records ``priority * cost``.
    Each gain computed is one oracle call; ``span`` gets the counters.
    """
    seeds, remaining, cheapest = result.seeds, budget, 0.0
    if queue is None:
        queue = LazyQueue()
        swept = engine.initial_gains(
            None if cost is None else lambda user: cost(user) <= budget
        )
        for user, gain in swept:
            result.oracle_calls += 1
            queue.push(
                user, gain / cost(user) if by_ratio else gain, iteration=0
            )
        if cost is not None:
            # Only users who fit are queued: once what is left is below
            # the cheapest of them, the budget is spent.
            cheapest = min((cost(user) for user, _ in swept), default=math.inf)
    while (
        len(seeds) < k and result.spread < target and remaining >= cheapest
        and queue
    ):
        entry = queue.pop()
        user = entry.item
        if cost is not None:
            price = cost(user)
            if price > remaining:
                continue
        if entry.iteration == len(seeds):
            gain = entry.gain * price if by_ratio else entry.gain
            if stop_at_zero and gain <= 0.0:
                break
            seeds.append(user)
            result.gains.append(gain)
            result.spread += gain
            if cost is not None:
                result.costs.append(price)
                remaining -= price
            engine.absorb(user)
            if picked is not None:
                picked()
        else:
            gain = engine.gain(user)
            result.oracle_calls += 1
            queue.push(
                user, gain / price if by_ratio else gain, iteration=len(seeds)
            )
    span.set(
        oracle_calls=result.oracle_calls,
        seeds=len(seeds),
        lemma2_updates=engine.lemma2_updates,
        lemma3_adds=engine.lemma3_adds,
    )
    return queue


def cd_maximize(
    index: CreditIndex,
    k: int,
    mutate: bool = False,
    time_log: list[tuple[int, float]] | None = None,
    *,
    checkpoints: list[tuple[int, float]] | None = None,
    state: CDState | None = None,
    state_out: list[CDState] | None = None,
    backend: str | None = None,
) -> GreedyResult:
    """Select ``k`` seeds under the CD model (Algorithm 3 + CELF).

    Parameters
    ----------
    index:
        The credit index produced by
        :func:`repro.core.scan.scan_action_log`.
    k:
        Seed-set size.
    mutate:
        The algorithm consumes the index destructively.  By default it
        works on a copy; pass ``mutate=True`` to save the copy when the
        index is single-use (e.g. inside benchmarks).
    time_log:
        If given, ``(seed_count, elapsed_seconds)`` is appended whenever
        a seed is selected (Figure-7 instrumentation).
    checkpoints:
        If given, ``(oracle_calls, spread)`` is appended right after
        each selection — entry ``i`` matches a cold run at ``k = i+1``.
    state:
        Resume from a :class:`CDState` (skips the initial gain sweep);
        ``index`` is ignored and the state is not mutated.  The CD trace
        does not depend on ``k``, so resuming to a larger ``k`` is
        bit-identical to a cold run at that ``k``.
    state_out:
        If given, the final :class:`CDState` is appended, ready to
        resume past this run's ``k``.
    backend:
        Compute backend: :class:`repro.kernels.cd_numpy.CDEngine` under
        ``"numpy"``, :func:`marginal_gain` and :func:`_absorb_seed`
        otherwise; bit-identical, exported ``CDState`` bytes included.

    Returns
    -------
    :class:`~repro.maximization.greedy.GreedyResult` whose ``spread`` is
    ``sigma_cd`` of the selected set and whose ``oracle_calls`` counts
    marginal-gain evaluations (the CELF efficiency metric).
    """
    require(k >= 0, f"k must be non-negative, got {k}")
    with obs_trace.span(
        "maximize.cd", k=k, resumed=state is not None
    ) as span:
        started = time.perf_counter()
        result = GreedyResult()
        queue = None
        if state is not None:
            working = state.index.copy()
            queue = LazyQueue.restore(state.queue)
            result.seeds = list(state.seeds)
            result.gains = list(state.gains)
            result.spread = state.spread
            result.oracle_calls = state.oracle_calls
        else:
            working = index if mutate else index.copy()
        engine = _engine(working, state and state.seed_credits, backend)

        def picked() -> None:
            if time_log is not None:
                time_log.append((len(result.seeds), time.perf_counter() - started))
            if checkpoints is not None:
                checkpoints.append((result.oracle_calls, result.spread))

        queue = _celf_loop(engine, result, span, queue, k=k, picked=picked)
        if state_out is not None:
            state_out.append(
                CDState(
                    index=working,
                    seed_credits=engine.seed_credits(),
                    queue=queue.snapshot(),
                    seeds=list(result.seeds),
                    gains=list(result.gains),
                    spread=result.spread,
                    oracle_calls=result.oracle_calls,
                )
            )
        return result
