"""Algorithm 2: the single chronological scan of the action log.

The scan processes one action at a time, its tuples in chronological
order, maintaining for the current action the total credit
``Gamma_{w,u}(a)`` accumulated so far (Eq. 5):

    Gamma_{w,u}(a) = sum_{v in N_in(u, a)} Gamma_{w,v}(a) * gamma_{v,u}(a)

with base case ``Gamma_{v,v}(a) = 1`` — so each potential influencer
``v`` of ``u`` contributes its *direct* credit ``gamma_{v,u}(a)`` plus a
``gamma``-scaled copy of every credit that flows *into* ``v``.

Credits below the truncation threshold ``lambda`` are discarded at
accumulation time (lines 10 and 12 of the paper's pseudocode), which is
what bounds the index's memory (Figure 8, Table 4).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.core.credit import DirectCredit, UniformCredit
from repro.core.index import CreditIndex
from repro.data.actionlog import ActionLog
from repro.data.propagation import PropagationGraph
from repro.graphs.digraph import SocialGraph
from repro.utils.validation import require_non_negative

__all__ = ["scan_action_log"]

User = Hashable


def scan_action_log(
    graph: SocialGraph,
    log: ActionLog,
    credit: DirectCredit | None = None,
    truncation: float = 0.001,
    actions: Iterable[Hashable] | None = None,
    index: CreditIndex | None = None,
    propagations: Callable[[Hashable], PropagationGraph] | None = None,
) -> CreditIndex:
    """Scan ``log`` and build the :class:`~repro.core.index.CreditIndex`.

    Parameters
    ----------
    graph:
        The social graph (defines each user's potential influencers).
    log:
        The (training) action log to scan.
    credit:
        Direct-credit scheme; defaults to
        :class:`~repro.core.credit.UniformCredit` (``1 / d_in(u, a)``).
        Pass a :class:`~repro.core.credit.TimeDecayCredit` built from
        learned parameters to use Eq. 9, as the paper's experiments do.
    truncation:
        The threshold ``lambda``: credit increments below it are
        discarded.  The paper's default is 0.001 (Table 4 sweeps it).
    actions:
        Optional subset of actions to scan (used by the training-size
        sweeps); defaults to all actions in the log.
    index:
        An existing :class:`CreditIndex` to extend *incrementally*.
        Per-action credits are independent, so folding newly recorded
        traces into a standing index is exactly equivalent to a full
        rescan of the union — the streaming-update property that makes
        the CD model maintainable as the action log grows (verified in
        ``tests/test_scan.py::TestIncrementalScan``).  Actions already
        present in the index must not be rescanned (that would double
        their credits and activity counts).
    propagations:
        Optional provider of per-action propagation graphs (e.g. the
        memoizing :meth:`repro.api.context.SelectionContext.propagation`),
        so learn→scan pipelines build each DAG once; defaults to
        building fresh graphs.
    """
    require_non_negative(truncation, "truncation")
    credit_fn = UniformCredit() if credit is None else credit
    if index is None:
        index = CreditIndex(truncation=truncation)
    else:
        truncation = index.truncation
    if propagations is None:
        propagations = lambda action: PropagationGraph.build(graph, log, action)  # noqa: E731
    wanted = list(log.actions()) if actions is None else list(actions)

    def credits():
        # One action at a time: record its users' activity, then emit its
        # entries, which add_entries appends and sorts into layout order.
        for action in wanted:
            propagation = propagations(action)
            # Credits into each user for *this* action:
            # local[u][w] = Gamma_{w,u}(a) accumulated so far.
            local: dict[User, dict[User, float]] = {}
            for user in propagation.nodes():
                index.record_activity(user)
                incoming: dict[User, float] = {}
                for parent in propagation.parents(user):
                    gamma = credit_fn(propagation, parent, user)
                    if gamma <= 0.0:
                        continue
                    # Direct credit (the Gamma_{v,v} = 1 base case).
                    if gamma >= truncation:
                        incoming[parent] = incoming.get(parent, 0.0) + gamma
                    # Transitive credit: everyone with credit on the parent
                    # earns a gamma-scaled share (Eq. 5).
                    for grandparent, parent_credit in local.get(parent, {}).items():
                        increment = gamma * parent_credit
                        if increment >= truncation:
                            incoming[grandparent] = (
                                incoming.get(grandparent, 0.0) + increment
                            )
                if incoming:
                    local[user] = incoming
            for user, incoming in local.items():
                for influencer, value in incoming.items():
                    yield influencer, action, user, value

    index.add_entries(credits())
    return index
