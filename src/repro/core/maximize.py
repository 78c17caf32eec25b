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
    index: CreditIndex,
    seed_credits: SeedCredits,
    seed: User,
    discount: Callable[[User], None] | None = None,
) -> None:
    """Algorithm 5: fold ``seed`` into S, updating UC and SC in place.

    ``discount`` applies Lemma 2 (default :meth:`CreditIndex.discount_through`;
    the NumPy maximizer passes its vectorized equivalent).
    """
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
    # Lemma 2: remove, from every remaining pair, the credit that flowed
    # through the new seed.
    (index.discount_through if discount is None else discount)(seed)
    # The seed leaves V - S: its remaining in/out credits are dead.
    index.remove_user(seed)
    seed_credits.drop_user(seed)


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
        Compute backend: under ``"numpy"`` the empty-seed-set gains
        come from :func:`repro.kernels.cd_numpy.cd_initial_gains` and
        Lemma 2 from :class:`repro.kernels.cd_numpy.Lemma2Discount`,
        both bit-identical to the reference; the CELF re-evaluations
        after each selection touch few users and stay pure Python
        either way.

    Returns
    -------
    :class:`~repro.maximization.greedy.GreedyResult` whose ``spread`` is
    ``sigma_cd`` of the selected set and whose ``oracle_calls`` counts
    marginal-gain evaluations (the CELF efficiency metric).
    """
    require(k >= 0, f"k must be non-negative, got {k}")
    with obs_trace.span("maximize.cd", k=k) as span:
        started = time.perf_counter()
        result = GreedyResult()
        vectorized = resolve_backend(backend) == "numpy"
        if state is not None:
            working = state.index.copy()
            seed_credits = state.seed_credits.copy()
            queue = LazyQueue.restore(state.queue)
            result.seeds = list(state.seeds)
            result.gains = list(state.gains)
            result.spread = state.spread
            result.oracle_calls = state.oracle_calls
        else:
            working = index if mutate else index.copy()
            seed_credits = SeedCredits()
            queue = LazyQueue()
            if vectorized:
                from repro.kernels.cd_numpy import cd_initial_gains

                for user, gain in cd_initial_gains(working):
                    result.oracle_calls += 1
                    queue.push(user, gain, iteration=0)
            else:
                for user in list(working.users()):
                    gain = marginal_gain(working, seed_credits, user)
                    result.oracle_calls += 1
                    queue.push(user, gain, iteration=0)
        discount = working.discount_through
        if vectorized:
            from repro.kernels.cd_numpy import Lemma2Discount

            discount = Lemma2Discount(working)
        while len(result.seeds) < k and queue:
            entry = queue.pop()
            if entry.iteration == len(result.seeds):
                result.seeds.append(entry.item)
                result.gains.append(entry.gain)
                result.spread += entry.gain
                _absorb_seed(working, seed_credits, entry.item, discount)
                if time_log is not None:
                    time_log.append((len(result.seeds), time.perf_counter() - started))
                if checkpoints is not None:
                    checkpoints.append((result.oracle_calls, result.spread))
            else:
                gain = marginal_gain(working, seed_credits, entry.item)
                result.oracle_calls += 1
                queue.push(entry.item, gain, iteration=len(result.seeds))
        if state_out is not None:
            state_out.append(
                CDState(
                    index=working,
                    seed_credits=seed_credits,
                    queue=queue.snapshot(),
                    seeds=list(result.seeds),
                    gains=list(result.gains),
                    spread=result.spread,
                    oracle_calls=result.oracle_calls,
                )
            )
        span.set(oracle_calls=result.oracle_calls, seeds=len(result.seeds))
        return result
