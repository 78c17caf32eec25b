"""Influence analytics on top of the credit index.

The credit index built by Algorithm 2 holds far more information than
the maximizer consumes: per (influencer, action, influenced) totals that
aggregate into the paper's ``kappa_{v,u}`` (Eq. 6) and per-user
influence profiles.  This module exposes that information as a query
API — the "who influences whom, on what, and how much" questions a
practitioner asks of a data-based influence model before (and after)
running seed selection:

* :func:`kappa` — the pairwise influence credit ``kappa_{v,u}``;
* :func:`influence_vector` — everyone a user holds credit over;
* :func:`top_influencers` — who most influences a given user;
* :func:`most_influential` — global ranking by total credit given
  (exactly ``sigma_cd({v})`` minus the self-term, per user);
* :func:`explain_spread` — per-seed, per-user decomposition of a seed
  set's ``sigma_cd`` (the data-based answer to "why were these seeds
  picked?").

All queries are read-only and leave the index untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.core.index import CreditIndex
from repro.utils.validation import require
from repro.utils.ordering import node_sort_key

__all__ = [
    "kappa",
    "influence_vector",
    "top_influencers",
    "most_influential",
    "InfluenceBreakdown",
    "explain_spread",
]

User = Hashable
Action = Hashable


def kappa(index: CreditIndex, influencer: User, influenced: User) -> float:
    """``kappa_{v,u}`` (Eq. 6): average credit ``v`` earns from ``u``.

    ``(1/A_u) * sum_a Gamma_{v,u}(a)`` read off the index.  0.0 when
    ``u`` has no recorded activity or no credit flows between the pair.
    """
    activity = index.activity.get(influenced, 0)
    row = index.user_ids.get(influencer)
    if activity == 0 or row is None:
        return 0.0
    target = index.user_ids[influenced]
    total = 0.0
    for _, other, value in index.row_ids(row):
        if other == target:
            total += value
    return total / activity


def influence_vector(index: CreditIndex, influencer: User) -> dict[User, float]:
    """``{u: kappa_{v,u}}`` for every user ``v`` holds credit over."""
    totals: dict[int, float] = {}
    row = index.user_ids.get(influencer)
    if row is not None:
        for _, target, value in index.row_ids(row):
            totals[target] = totals.get(target, 0.0) + value
    counts = index.counts
    return {
        index.user_of[target]: value / counts[target]
        for target, value in totals.items()
        if counts[target] > 0
    }


def top_influencers(
    index: CreditIndex, influenced: User, limit: int = 10
) -> list[tuple[User, float]]:
    """The ``limit`` users with the highest ``kappa_{., influenced}``.

    Sorted by descending credit; ties broken deterministically by node
    representation so reports are stable across runs.
    """
    require(limit >= 0, f"limit must be non-negative, got {limit}")
    activity = index.activity.get(influenced, 0)
    if activity == 0:
        return []
    totals: dict[User, float] = {}
    for influencer, _, value in index.sources(influenced):
        totals[influencer] = totals.get(influencer, 0.0) + value
    ranked = sorted(
        ((influencer, total / activity) for influencer, total in totals.items()),
        key=lambda pair: (-pair[1], node_sort_key(pair[0])),
    )
    return ranked[:limit]


def most_influential(
    index: CreditIndex, limit: int = 10
) -> list[tuple[User, float]]:
    """Global ranking of users by total credit given by others.

    A user's score is ``sum_u kappa_{v,u}`` over ``u != v`` — the
    credit-only part of ``sigma_cd({v})`` (the maximizer's first
    iteration adds 1 for the seed itself).  This is the model's
    "influencer leaderboard" and, by submodularity, its top entry is
    always the first seed ``cd_maximize`` picks.
    """
    require(limit >= 0, f"limit must be non-negative, got {limit}")
    scores: dict[User, float] = {}
    counts = index.counts
    for row, influencer in enumerate(index.user_of):
        entries = list(index.row_ids(row))
        if not entries:
            continue
        total = 0.0
        for _, target, value in entries:
            total += value / counts[target]
        scores[influencer] = total
    ranked = sorted(
        scores.items(), key=lambda pair: (-pair[1], node_sort_key(pair[0]))
    )
    return ranked[:limit]


@dataclass(frozen=True)
class InfluenceBreakdown:
    """The decomposition of one seed set's influence spread.

    Attributes
    ----------
    seeds:
        The evaluated seed set (order preserved, duplicates removed).
    total:
        ``sigma_cd(seeds)`` under the index's (truncated) credits.
    self_credit:
        The part contributed by the seeds' own activity (1 per active seed).
    per_seed:
        Marginal-style attribution: each seed's solo credit over
        non-seed users.  Overlapping influence is counted in *every*
        overlapping seed's entry, so the values sum to at least
        ``total - self_credit`` (the gap measures redundancy).
    per_user:
        ``kappa_{S,u}`` for each influenced non-seed user.
    """

    seeds: tuple[User, ...]
    total: float
    self_credit: float
    per_seed: dict[User, float]
    per_user: dict[User, float]

    @property
    def redundancy(self) -> float:
        """How much solo influence overlaps: ``sum(per_seed) - joint``.

        0 when the seeds influence disjoint audiences via disjoint
        paths; grows as their reach overlaps — the quantity greedy
        selection tries to keep small.
        """
        joint = self.total - self.self_credit
        return max(0.0, sum(self.per_seed.values()) - joint)


def explain_spread(index: CreditIndex, seeds: Iterable[User]) -> InfluenceBreakdown:
    """Decompose ``sigma_cd(seeds)`` into per-seed and per-user parts.

    The joint ``kappa_{S,u}`` is computed with the Lemma-1 identity on
    the *index's* credits: for each user ``u``, the seed set's credit is
    approximated by capping the seeds' summed solo credit at 1 per
    action — exact when seeds lie on credit-disjoint paths, and an upper
    bound (still below the true set credit's own bound of 1) otherwise.
    For exact joint credits use
    :class:`~repro.core.spread.CDSpreadEvaluator`; this function trades
    that exactness for index-only, rescan-free reporting.
    """
    unique_seeds: list[User] = []
    seen: set[User] = set()
    for seed in seeds:
        if seed not in seen:
            seen.add(seed)
            unique_seeds.append(seed)

    self_credit = float(
        sum(1 for seed in unique_seeds if index.activity.get(seed, 0) > 0)
    )
    per_seed: dict[User, float] = {}
    # (action, user) -> summed seed credit, capped at 1 below.
    joint_by_action_user: dict[tuple[Action, User], float] = {}
    for seed in unique_seeds:
        solo = 0.0
        for action, influenced, value in index.row(seed):
            if influenced in seen:
                continue
            solo += value / index.activity[influenced]
            key = (action, influenced)
            joint_by_action_user[key] = (
                joint_by_action_user.get(key, 0.0) + value
            )
        per_seed[seed] = solo

    per_user: dict[User, float] = {}
    for (action, influenced), value in joint_by_action_user.items():
        per_user[influenced] = per_user.get(influenced, 0.0) + min(1.0, value) / (
            index.activity[influenced]
        )
    total = self_credit + sum(per_user.values())
    return InfluenceBreakdown(
        seeds=tuple(unique_seeds),
        total=total,
        self_credit=self_credit,
        per_seed=per_seed,
        per_user=per_user,
    )

