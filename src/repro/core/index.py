"""Sparse credit structures: UC (user credits) and SC (seed credits).

:class:`CreditIndex` is the output of Algorithm 2 and the working state
of Algorithms 3-5.  An entry ``UC[v][a][u]`` holds
``Gamma^{V-S}_{v,u}(a)`` — the total credit ``v`` earns for influencing
``u`` on action ``a``, restricted to paths avoiding the current seed set
``S`` (initially empty, so it starts as plain ``Gamma_{v,u}(a)``).

The index keeps *both* orientations:

* ``out`` — by influencer: ``out[v][a][u]`` (drives marginal-gain
  computation, Algorithm 4);
* ``inc`` — by influenced: ``inc[u][a][v]`` (drives the Lemma-2 update
  when a node joins the seed set, Algorithm 5).

The two mirrors are kept exactly consistent; tests verify it.  Memory is
dominated by credit entries, so :meth:`CreditIndex.total_entries` and
:meth:`CreditIndex.estimate_memory_bytes` provide the measurements
behind Figure 8 (right) and Table 4.

:class:`SeedCredits` is SC: ``sc[x][a] = Gamma_{S,x}(a)``, the credit
the *current seed set* earns for influencing ``x`` — the
``(1 - Gamma_{S,x}(a))`` factor of Theorem 3.
"""

from __future__ import annotations

import sys
from typing import Hashable, Iterator

from repro.utils.validation import require_non_negative

__all__ = ["CreditIndex", "SeedCredits"]

User = Hashable
Action = Hashable

# Entries whose value falls to (numerically) zero after a Lemma-2 update
# are dropped to keep the index tight.
_ZERO = 1e-15


class CreditIndex:
    """The UC structure: total credits per (influencer, action, influenced).

    Instances are produced by :func:`repro.core.scan.scan_action_log`;
    the maximizer then mutates them in place (the paper's Algorithm 5).
    Use :meth:`copy` to preserve a pristine index across runs.
    """

    def __init__(self, truncation: float = 0.0) -> None:
        require_non_negative(truncation, "truncation")
        self.truncation = truncation
        self.out: dict[User, dict[Action, dict[User, float]]] = {}
        self.inc: dict[User, dict[Action, dict[User, float]]] = {}
        self.activity: dict[User, int] = {}
        self._entries = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def record_activity(self, user: User) -> None:
        """Count one action performed by ``user`` (the ``A_u`` counter)."""
        self.activity[user] = self.activity.get(user, 0) + 1

    def set_credit(
        self, influencer: User, action: Action, influenced: User, value: float
    ) -> None:
        """Set ``Gamma_{influencer, influenced}(action)`` in both mirrors."""
        by_action = self.out.setdefault(influencer, {})
        targets = by_action.setdefault(action, {})
        if influenced not in targets:
            self._entries += 1
        targets[influenced] = value
        self.inc.setdefault(influenced, {}).setdefault(action, {})[
            influencer
        ] = value

    def bulk_set_credits(
        self,
        action: Action,
        credits_by_influenced: "dict[User, dict[User, float]]",
        credits_by_influencer: "dict[User, dict[User, float]] | None" = None,
        adopt: bool = False,
    ) -> None:
        """Load one action's credits in bulk (the NumPy scan fast path).

        Equivalent to calling :meth:`set_credit` for every
        ``(influencer, action, influenced, value)`` triple in
        ``credits_by_influenced[influenced][influencer]``, but builds
        the ``inc`` mirror one dict per influenced user instead of
        walking two ``setdefault`` chains per entry.

        ``credits_by_influencer`` optionally supplies the *same*
        entries already grouped by influencer (the transpose); the
        ``out`` mirror is then built dict-per-group as well, which is
        what makes the NumPy scan's load phase cheap.  The caller must
        guarantee the two groupings describe identical entry sets.

        ``adopt=True`` lets the index keep the provided inner dicts as
        its own storage where the slot is empty (no defensive copy);
        the caller relinquishes them and must not mutate them after.
        """
        for influenced, sources in credits_by_influenced.items():
            if not sources:
                continue
            by_action = self.inc.setdefault(influenced, {})
            existing = by_action.get(action)
            if existing is None:
                by_action[action] = sources if adopt else dict(sources)
            else:
                existing.update(sources)
            if credits_by_influencer is None:
                for influencer, value in sources.items():
                    targets = self.out.setdefault(influencer, {}).setdefault(
                        action, {}
                    )
                    if influenced not in targets:
                        self._entries += 1
                    targets[influenced] = value
        if credits_by_influencer is None:
            return
        for influencer, targets in credits_by_influencer.items():
            if not targets:
                continue
            by_action = self.out.setdefault(influencer, {})
            existing = by_action.get(action)
            if existing is None:
                by_action[action] = targets if adopt else dict(targets)
                self._entries += len(targets)
            else:
                for influenced, value in targets.items():
                    if influenced not in existing:
                        self._entries += 1
                    existing[influenced] = value

    def discount_through(self, seed: User) -> None:
        """Apply Lemma 2 for a new seed: remove the credit that flowed through it.

        ``Gamma^{W-x}_{v,u}(a) = Gamma^W_{v,u}(a) - Gamma^W_{v,x}(a) Gamma^W_{x,u}(a)``
        for every source ``v`` and target ``u`` of ``seed`` on each of its
        actions, dropping entries that fall to ``<= 1e-15``.  A missing
        ``(v, a, u)`` entry is skipped: with truncation active, that
        credit may have been below ``lambda`` at scan time and never
        stored.

        Call it before :meth:`remove_user`: the seed's own entries keep
        ``out[v][a]`` and ``inc[u][a]`` non-empty throughout, so no
        container is ever dropped here.  Every entry changes at most once
        and none is inserted, so the source-major order (each source's
        row fetched once) leaves exactly the state, dict order included,
        of applying the decrements one entry at a time.
        """
        in_credits = self.inc.get(seed, {})
        for action, targets in self.out.get(seed, {}).items():
            sources = in_credits.get(action)
            if not sources:
                continue
            target_rows = [
                (target, seed_to_target, self.inc[target][action])
                for target, seed_to_target in targets.items()
            ]
            for source, source_to_seed in sources.items():
                row = self.out[source][action]
                for target, seed_to_target, target_sources in target_rows:
                    value = row.get(target)
                    if value is None:
                        continue
                    remaining = value - source_to_seed * seed_to_target
                    if remaining <= _ZERO:
                        del row[target]
                        del target_sources[source]
                        self._entries -= 1
                    else:
                        row[target] = remaining
                        target_sources[source] = remaining

    def remove_user(self, user: User) -> None:
        """Delete every credit entry to or from ``user`` (it became a seed).

        After ``user`` joins ``S`` it is no longer part of ``V - S``:
        credits *into* it are conceptually zero (Lemma 2 with ``u = x``)
        and credits *from* it are never read again (Algorithm 4 only
        evaluates non-seeds).
        """
        for action, sources in list(self.inc.get(user, {}).items()):
            for source in list(sources):
                self._remove(source, action, user)
        self.inc.pop(user, None)
        for action, targets in list(self.out.get(user, {}).items()):
            for target in list(targets):
                self._remove(user, action, target)
        self.out.pop(user, None)

    def _remove(self, influencer: User, action: Action, influenced: User) -> None:
        by_action = self.out.get(influencer)
        if by_action is None:
            return
        targets = by_action.get(action)
        if targets is None or influenced not in targets:
            return
        del targets[influenced]
        self._entries -= 1
        if not targets:
            del by_action[action]
        if not by_action:
            del self.out[influencer]
        sources = self.inc[influenced][action]
        del sources[influencer]
        if not sources:
            del self.inc[influenced][action]
        if not self.inc[influenced]:
            del self.inc[influenced]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def credit(self, influencer: User, action: Action, influenced: User) -> float:
        """``Gamma^{V-S}_{influencer, influenced}(action)`` (0 if absent)."""
        return (
            self.out.get(influencer, {}).get(action, {}).get(influenced, 0.0)
        )

    def users(self) -> Iterator[User]:
        """Users with recorded activity (the candidate seed universe)."""
        return iter(self.activity)

    @property
    def total_entries(self) -> int:
        """Number of stored (v, a, u) credit entries."""
        return self._entries

    def estimate_memory_bytes(self) -> int:
        """Rough memory footprint of the credit entries.

        Counts each entry as one dict slot with a boxed float plus the
        amortised key share, *in both mirrors* — ``out`` and ``inc``
        each store every entry, so the process holds two slots per
        credit.  This is the quantity proportional to the paper's
        Figure-8 memory curve.
        """
        per_entry = 2 * (sys.getsizeof(0.0) + 80)  # float box + dict slot, x2 mirrors
        return self._entries * per_entry

    def copy(self) -> "CreditIndex":
        """Deep-copy the index (the maximizer mutates it in place).

        Rebuilds both mirrors by direct nested-dict reconstruction and
        carries ``_entries`` over — no per-entry ``set_credit`` calls
        (which would walk two ``setdefault`` chains per entry).
        """
        duplicate = CreditIndex(truncation=self.truncation)
        duplicate.activity = dict(self.activity)
        duplicate.out = {
            influencer: {
                action: dict(targets) for action, targets in by_action.items()
            }
            for influencer, by_action in self.out.items()
        }
        duplicate.inc = {
            influenced: {
                action: dict(sources) for action, sources in by_action.items()
            }
            for influenced, by_action in self.inc.items()
        }
        duplicate._entries = self._entries
        return duplicate

    def __repr__(self) -> str:
        return (
            f"CreditIndex(users={len(self.activity)}, "
            f"entries={self.total_entries}, truncation={self.truncation})"
        )


class SeedCredits:
    """The SC structure: ``Gamma_{S,x}(a)`` for the current seed set S."""

    def __init__(self) -> None:
        self._credits: dict[User, dict[Action, float]] = {}
        self._sums: dict[User, float] = {}

    def get(self, user: User, action: Action) -> float:
        """``Gamma_{S, user}(action)`` (0 if S has no credit on user)."""
        return self._credits.get(user, {}).get(action, 0.0)

    def by_action(self, user: User) -> dict[Action, float]:
        """All per-action seed credits on ``user`` (read-only view)."""
        return self._credits.get(user, {})

    def total(self, user: User) -> float:
        """``sum_a Gamma_{S, user}(a)`` — the numerator of kappa_{S,user}."""
        return self._sums.get(user, 0.0)

    def add(self, user: User, action: Action, amount: float) -> None:
        """Apply the Lemma-3 increment to ``Gamma_{S, user}(action)``."""
        per_action = self._credits.setdefault(user, {})
        per_action[action] = per_action.get(action, 0.0) + amount
        self._sums[user] = self._sums.get(user, 0.0) + amount

    def drop_user(self, user: User) -> None:
        """Forget a user's entries (called when it joins the seed set)."""
        self._credits.pop(user, None)
        self._sums.pop(user, None)

    def copy(self) -> "SeedCredits":
        """Deep-copy (resuming a persisted CD run must not mutate the
        cached state)."""
        duplicate = SeedCredits()
        duplicate._credits = {
            user: dict(per_action) for user, per_action in self._credits.items()
        }
        duplicate._sums = dict(self._sums)
        return duplicate

    def __repr__(self) -> str:
        return f"SeedCredits(users={len(self._credits)})"
