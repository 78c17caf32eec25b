"""The action log relation L(User, Action, Time).

:class:`ActionLog` stores every ``(user, action, time)`` tuple, maintains
the invariant that a user performs an action at most once (paper Section
4, Data Model), and serves the access patterns the rest of the library
needs:

* the *propagation trace* of an action — its tuples in chronological
  order (Algorithm 2 scans the log "one action at a time and in
  chronological order");
* the *user activity* ``A_u`` — the number of actions ``u`` performed,
  the normaliser of Eq. (6);
* restriction to a subset of actions — how the train/test split
  materialises sub-logs.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

__all__ = ["ActionLog"]

User = Hashable
Action = Hashable


class ActionLog:
    """A set of ``(user, action, time)`` tuples with per-action ordering.

    Example
    -------
    >>> log = ActionLog.from_tuples([(1, "a", 0.0), (2, "a", 1.5)])
    >>> log.trace("a")
    [(1, 0.0), (2, 1.5)]
    >>> log.activity(1)
    1
    """

    def __init__(self) -> None:
        # Per-action traces as (time-sorted) lists of (user, time).
        self._traces: dict[Action, list[tuple[User, float]]] = {}
        # (user, action) -> time; also enforces the at-most-once invariant.
        self._times: dict[tuple[User, Action], float] = {}
        # user -> number of actions performed (A_u in the paper).
        self._activity: dict[User, int] = {}
        self._sorted = True

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls, tuples: Iterable[tuple[User, Action, float]]
    ) -> "ActionLog":
        """Build a log from an iterable of ``(user, action, time)`` tuples."""
        log = cls()
        for user, action, time in tuples:
            log.add(user, action, time)
        return log

    def add(self, user: User, action: Action, time: float) -> None:
        """Record that ``user`` performed ``action`` at ``time``.

        Raises ``ValueError`` if the user already performed this action:
        the data model assumes each action is performed at most once per
        user (re-ratings/re-joins are not propagations).
        """
        key = (user, action)
        if key in self._times:
            raise ValueError(
                f"user {user!r} already performed action {action!r}; "
                "the data model allows at most one tuple per (user, action)"
            )
        self._times[key] = time
        self._activity[user] = self._activity.get(user, 0) + 1
        self._traces.setdefault(action, []).append((user, time))
        self._sorted = False

    # ------------------------------------------------------------------
    # Relation-level queries
    # ------------------------------------------------------------------
    @property
    def num_tuples(self) -> int:
        """Total number of tuples in the relation."""
        return len(self._times)

    @property
    def num_actions(self) -> int:
        """Size of the action universe A (projection on the Action column)."""
        return len(self._traces)

    @property
    def num_users(self) -> int:
        """Number of distinct users appearing in the log."""
        return len(self._activity)

    def actions(self) -> Iterator[Action]:
        """Iterate over the action universe A."""
        return iter(self._traces)

    def users(self) -> Iterator[User]:
        """Iterate over users that performed at least one action."""
        return iter(self._activity)

    def tuples(self) -> Iterator[tuple[User, Action, float]]:
        """Iterate over all tuples, grouped by action, chronological within."""
        self._ensure_sorted()
        for action, trace in self._traces.items():
            for user, time in trace:
                yield (user, action, time)

    def __len__(self) -> int:
        return len(self._times)

    def __contains__(self, user_action: tuple[User, Action]) -> bool:
        return user_action in self._times

    # ------------------------------------------------------------------
    # Per-action / per-user queries
    # ------------------------------------------------------------------
    def trace(self, action: Action) -> list[tuple[User, float]]:
        """The propagation trace of ``action``: (user, time) by ascending time.

        Ties are broken by insertion order, which the generator makes
        deterministic.  The returned list is the internal one — treat it
        as read-only.
        """
        self._ensure_sorted()
        try:
            return self._traces[action]
        except KeyError as exc:
            raise KeyError(f"action {action!r} does not appear in the log") from exc

    def trace_size(self, action: Action) -> int:
        """Number of users who performed ``action`` (the propagation size)."""
        return len(self.trace(action))

    def performed(self, user: User, action: Action) -> bool:
        """True iff ``user`` performed ``action``."""
        return (user, action) in self._times

    def time_of(self, user: User, action: Action) -> float:
        """The time at which ``user`` performed ``action``; raises if never."""
        try:
            return self._times[(user, action)]
        except KeyError as exc:
            raise KeyError(
                f"user {user!r} never performed action {action!r}"
            ) from exc

    def activity(self, user: User) -> int:
        """``A_u``: the number of actions ``user`` performed (0 if unseen)."""
        return self._activity.get(user, 0)

    def actions_of(self, user: User) -> list[Action]:
        """All actions performed by ``user`` (unordered)."""
        return [action for (u, action) in self._times if u == user]

    # ------------------------------------------------------------------
    # Restriction (train/test splits, scalability subsamples)
    # ------------------------------------------------------------------
    def restrict_to_actions(self, actions: Iterable[Action]) -> "ActionLog":
        """Return a new log containing only the traces of ``actions``.

        Unknown actions are ignored so callers can pass arbitrary subsets.
        Entire traces move together — the paper's split requirement.
        """
        wanted = set(actions)
        sublog = ActionLog()
        self._ensure_sorted()
        for action, trace in self._traces.items():
            if action in wanted:
                for user, time in trace:
                    sublog.add(user, action, time)
        sublog._ensure_sorted()
        return sublog

    def head_tuples(self, limit: int) -> "ActionLog":
        """Return a new log of whole traces holding at most ``limit`` tuples.

        Used by the scalability experiments (Figures 8-9), which sweep the
        number of training tuples by sampling whole propagation traces.
        Traces are visited in insertion order; each one that still fits
        in ``limit`` is kept, and each one that would overflow it is
        skipped while later, smaller traces are still added.  Over traces
        of 2, 5 and 1 tuples, ``head_tuples(3)`` keeps the first and the
        third.
        """
        sublog = ActionLog()
        total = 0
        self._ensure_sorted()
        for action, trace in self._traces.items():
            if total + len(trace) > limit:
                continue
            total += len(trace)
            for user, time in trace:
                sublog.add(user, action, time)
        sublog._ensure_sorted()
        return sublog

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            for trace in self._traces.values():
                trace.sort(key=lambda user_time: user_time[1])
            self._sorted = True

    def __repr__(self) -> str:
        return (
            f"ActionLog(num_tuples={self.num_tuples}, "
            f"num_actions={self.num_actions}, num_users={self.num_users})"
        )
