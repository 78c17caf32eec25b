"""Exact sigma_cd evaluation for arbitrary seed sets.

This module computes the CD spread (Eq. 8) directly from the action log:

    sigma_cd(S) = sum_u kappa_{S,u},
    kappa_{S,u} = (1 / A_u) * sum_a Gamma_{S,u}(a)

where ``Gamma_{S,u}(a)`` follows the set-credit recursion of Section 4
(1 if ``u in S``, else the gamma-weighted sum over potential
influencers) — a single forward pass over each propagation DAG in
chronological order.  No truncation is applied, so this evaluator is the
reference the truncated scan + incremental maximizer is tested against.

Two roles in the reproduction:

* *spread prediction* (Figures 3-4): predict the spread of a test
  trace's initiators by evaluating ``sigma_cd`` over the **training**
  log;
* *ground-truth proxy* (Figure 6): the paper cannot observe the actual
  spread of arbitrary seed sets, so it uses the CD estimate — the most
  accurate available model — as the yardstick for every method's seeds.

Conventions for degenerate cases, chosen so that this evaluator and the
index-based maximizer agree on every seed set (the Theorem-3 gain of
:func:`repro.core.maximize.marginal_gain` is 0 for a user without
activity):

* a seed that performs no action in the log contributes 0, not 1 — the
  data shows no evidence of it influencing anyone;
* a seed with activity contributes exactly 1 (``kappa_{S,u} = 1`` for
  ``u in S``, as in the NP-hardness proof);
* ``sigma_cd`` of a seed set without activity is the float ``0.0``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Hashable, Iterable

from repro.core.credit import DirectCredit, UniformCredit
from repro.core.index import _column
from repro.data.actionlog import ActionLog
from repro.data.propagation import PropagationGraph
from repro.graphs.digraph import SocialGraph

__all__ = ["CDSpreadEvaluator", "sigma_cd"]

User = Hashable

# The columns and their array typecodes: int32 counts, user ids and
# parent positions, int64 bounds, float64 gammas.
_COLUMNS = {
    "counts": "i", "offsets": "q", "position_user": "i",
    "link_start": "q", "link_parent": "i", "link_gamma": "d",
}


class CDSpreadEvaluator:
    """Pre-compiled sigma_cd evaluator (a ``SpreadOracle``).

    The evaluated log is one columnar table on stdlib
    :class:`array.array`, over the global *positions* of every action's
    chronological trace (an action's offset plus the trace index):

    * ``users`` — every user with activity, first-seen first;
      ``counts[i]`` is user ``i``'s ``A_u``;
    * ``offsets`` — action ``j`` (in compile order) owns positions
      ``offsets[j]:offsets[j + 1]``; ``position_user`` is the user id
      at each position;
    * ``link_start`` — the in-link CSR: position ``p``'s potential
      influencers are the links ``link_start[p]:link_start[p + 1]``,
      each an earlier ``link_parent`` position of the same action with
      its ``link_gamma``, in :meth:`PropagationGraph.parents` order.

    Two query kernels answer over the same columns, bit for bit alike:
    the pure-Python walk below, which visits only the actions a seed
    performed, each from its earliest seed's position, and the NumPy
    :func:`repro.kernels.cd_numpy.cd_kappa_numpy`, level by level over
    the whole link table.  An evaluator answers with the kernel of the
    build that made it (the constructor: Python;
    :func:`~repro.kernels.cd_numpy.cd_evaluator_numpy`: NumPy) or of
    the :class:`~repro.api.context.SelectionContext` that holds it, and
    keeps it inside process-executor workers.  The choice, the
    user -> positions map and the NumPy kernel's depth order are never
    part of the pickle, so stored payloads depend on neither queries
    nor backend.

    Example
    -------
    >>> from repro.data.datasets import toy_example
    >>> toy = toy_example()
    >>> evaluator = CDSpreadEvaluator(toy.graph, toy.log)
    >>> round(evaluator.spread(["v"]), 4)
    3.75
    """

    # "python" or "numpy"; instances that differ hold their own.
    _kernel = "python"

    def __init__(
        self,
        graph: SocialGraph,
        log: ActionLog,
        credit: DirectCredit | None = None,
        actions: Iterable[Hashable] | None = None,
        propagations: Callable[[Hashable], PropagationGraph] | None = None,
    ) -> None:
        self.users: list[User] = []
        for name, code in _COLUMNS.items():
            setattr(self, name, array(code))
        self.offsets.append(0)
        self.link_start.append(0)
        self._append(graph, log, credit, actions, propagations)

    def _append(
        self,
        graph: SocialGraph,
        log: ActionLog,
        credit: DirectCredit | None,
        actions: Iterable[Hashable] | None,
        propagations: Callable[[Hashable], PropagationGraph] | None,
    ) -> None:
        """Compile ``actions`` (default: every action of ``log``) onto
        the end of the columns."""
        credit_fn = UniformCredit() if credit is None else credit
        if propagations is None:
            propagations = lambda action: PropagationGraph.build(graph, log, action)  # noqa: E731
        wanted = list(log.actions()) if actions is None else list(actions)
        users, counts = self.users, self.counts
        position_user, link_start = self.position_user, self.link_start
        link_parent, link_gamma = self.link_parent, self.link_gamma
        ids = dict(zip(users, range(len(users))))
        for action in wanted:
            propagation = propagations(action)
            nodes = list(propagation.nodes())
            base = len(position_user)
            position_of = dict(zip(nodes, range(base, base + len(nodes))))
            for user in nodes:
                user_id = ids.get(user)
                if user_id is None:
                    user_id = ids[user] = len(users)
                    users.append(user)
                    counts.append(1)
                else:
                    counts[user_id] += 1
                position_user.append(user_id)
                parents = propagation.parents(user)
                if parents:
                    link_parent.extend([position_of[parent] for parent in parents])
                    link_gamma.extend(
                        [credit_fn(propagation, parent, user) for parent in parents]
                    )
                link_start.append(len(link_parent))
            self.offsets.append(len(position_user))

    @classmethod
    def from_columns(cls, users: list, **columns) -> "CDSpreadEvaluator":
        """An evaluator over columns built elsewhere, adopted as given.

        ``users`` is the id space (first-seen order) and ``columns``
        holds every column of :data:`_COLUMNS` as a buffer of its type;
        the NumPy build :func:`repro.kernels.cd_numpy.cd_evaluator_numpy`
        hands its arrays over this way.
        """
        evaluator = cls.__new__(cls)
        evaluator.__setstate__({"users": list(users), **columns})
        return evaluator

    def extend(
        self,
        graph: SocialGraph,
        log: ActionLog,
        credit: DirectCredit | None = None,
        actions: Iterable[Hashable] | None = None,
        propagations: Callable[[Hashable], PropagationGraph] | None = None,
    ) -> "CDSpreadEvaluator":
        """A new evaluator covering this one's log plus ``log``'s traces.

        Per-action compilation is independent (Eq. 5 never crosses
        actions), so appending the new actions' columns yields exactly
        the evaluator a from-scratch build over the union log would
        produce — *provided* ``credit`` is per-propagation (the uniform
        scheme).  Time-decay credits depend on globally learned
        influenceability and must be re-built over the union instead.

        ``self`` is left untouched (its columns are copied), so an
        evaluator currently serving queries stays valid; the new one
        answers with the same kernel.
        """
        extended = CDSpreadEvaluator.from_columns(**self.__getstate__())
        extended._kernel = self._kernel
        extended._append(graph, log, credit, actions, propagations)
        return extended

    def candidates(self) -> list[User]:
        """Users with at least one action — the useful seed universe."""
        return list(self.users)

    def activity(self, user: User) -> int:
        """``A_u`` within the evaluated log."""
        return len(self._user_positions().get(user, ()))

    # ------------------------------------------------------------------
    # Pickling: raw column bytes; the kernel and derived maps stay out
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            "users": self.users,
            **{name: getattr(self, name).tobytes() for name in _COLUMNS},
        }

    def __setstate__(self, state: dict) -> None:
        self.users = state["users"]
        for name, code in _COLUMNS.items():
            setattr(self, name, _column(code, state[name]))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _user_positions(self) -> dict[User, list[int]]:
        """Every user's positions in ascending order, built once.

        Published by a single attribute assignment, so a concurrent
        query sees either no map (and builds an identical one) or a
        complete one.
        """
        positions = self.__dict__.get("_positions")
        if positions is None:
            lists: list[list[int]] = [[] for _ in self.users]
            for position, user_id in enumerate(self.position_user):
                lists[user_id].append(position)
            positions = dict(zip(self.users, lists))
            self._positions = positions
        return positions

    def kappa(self, seeds: Iterable[User]) -> dict[User, float]:
        """``kappa_{S,u}`` for every user ``u`` the seed set credits.

        Users appear in the order of their first position with positive
        credit; both kernels give the same values in the same order.
        """
        if self._kernel == "numpy":
            from repro.kernels.cd_numpy import cd_kappa_numpy

            return cd_kappa_numpy(self, seeds)
        return self._kappa_python(seeds)

    def _kappa_python(self, seeds: Iterable[User]) -> dict[User, float]:
        """The seed-indexed walk.

        Only the actions some seed performed are walked, in log order,
        each from its earliest seed's position.  Until a walk reaches a
        seed every credit it computes is zero, so the skipped positions
        and actions add nothing: the values, and the dict order, are
        those of a walk over every action.
        """
        positions = self._user_positions()
        offsets = self.offsets
        pinned: set[int] = set()
        starts: dict[int, int] = {}
        for seed in set(seeds):
            for position in positions.get(seed, ()):
                pinned.add(position)
                action = bisect_right(offsets, position) - 1
                if position < starts.get(action, position + 1):
                    starts[action] = position
        position_user, link_start = self.position_user, self.link_start
        link_parent, link_gamma = self.link_parent, self.link_gamma
        totals: dict[int, float] = {}
        for action in sorted(starts):
            # Only positive credits are kept: a parent missing here is
            # one whose zero credit the sum below would skip anyway.
            gamma_s: dict[int, float] = {}
            for position in range(starts[action], offsets[action + 1]):
                if position in pinned:
                    credit = 1.0
                else:
                    credit = 0.0
                    for link in range(
                        link_start[position], link_start[position + 1]
                    ):
                        source = gamma_s.get(link_parent[link])
                        if source is not None:
                            gamma = link_gamma[link]
                            if gamma > 0.0:
                                credit += source * gamma
                if credit > 0.0:
                    gamma_s[position] = credit
                    user_id = position_user[position]
                    totals[user_id] = totals.get(user_id, 0.0) + credit
        users, counts = self.users, self.counts
        return {
            users[user_id]: total / counts[user_id]
            for user_id, total in totals.items()
        }

    def spread(self, seeds: Iterable[User]) -> float:
        """``sigma_cd(seeds)``: the sum of ``kappa_{S,u}`` over all users."""
        return sum(self.kappa(seeds).values(), 0.0)


def _reduce_for_worker(evaluator: CDSpreadEvaluator):
    """The process-executor pickle: the payload state plus the kernel."""
    return _rebuild_in_worker, (evaluator.__getstate__(), evaluator._kernel)


def _rebuild_in_worker(state: dict, kernel: str) -> CDSpreadEvaluator:
    evaluator = CDSpreadEvaluator.from_columns(**state)
    evaluator._kernel = kernel
    return evaluator


# Worker processes receive their tasks through multiprocessing's
# pickler; stored payloads go through plain pickle and never carry the
# kernel.
ForkingPickler.register(CDSpreadEvaluator, _reduce_for_worker)


def sigma_cd(
    graph: SocialGraph,
    log: ActionLog,
    seeds: Iterable[User],
    credit: DirectCredit | None = None,
) -> float:
    """One-shot ``sigma_cd`` evaluation (builds a fresh evaluator).

    Prefer :class:`CDSpreadEvaluator` when evaluating many seed sets over
    the same log.
    """
    return CDSpreadEvaluator(graph, log, credit=credit).spread(seeds)
