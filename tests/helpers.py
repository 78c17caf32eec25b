"""Brute-force reference implementations used as test oracles.

Everything here is deliberately naive — exponential enumeration or
direct recursion — so that the library's optimised algorithms can be
checked against independently derived ground truth on small instances.
"""

from __future__ import annotations

import itertools
import random
from typing import Hashable, Iterable, Mapping

from repro.core.credit import DirectCredit, UniformCredit
from repro.core.index import CreditIndex, SeedCredits
from repro.data.actionlog import ActionLog
from repro.data.propagation import PropagationGraph
from repro.graphs.digraph import SocialGraph

User = Hashable
Edge = tuple[User, User]


def exact_ic_spread(
    graph: SocialGraph,
    probabilities: Mapping[Edge, float],
    seeds: Iterable[User],
) -> float:
    """Exact sigma_IC by enumerating every live-edge possible world.

    Exponential in the number of probabilistic edges — keep graphs tiny.
    """
    seed_list = [seed for seed in seeds if seed in graph]
    stochastic = [
        (edge, p)
        for edge in graph.edges()
        if 0.0 < (p := probabilities.get(edge, 0.0)) < 1.0
    ]
    certain = [
        edge for edge in graph.edges() if probabilities.get(edge, 0.0) >= 1.0
    ]
    total = 0.0
    for outcome in itertools.product([True, False], repeat=len(stochastic)):
        weight = 1.0
        world = SocialGraph()
        for node in graph.nodes():
            world.add_node(node)
        for edge in certain:
            world.add_edge(*edge)
        for (edge, p), live in zip(stochastic, outcome):
            weight *= p if live else (1.0 - p)
            if live:
                world.add_edge(*edge)
        total += weight * len(world.reachable_from(seed_list))
    return total


def exact_lt_spread(
    graph: SocialGraph,
    weights: Mapping[Edge, float],
    seeds: Iterable[User],
) -> float:
    """Exact sigma_LT by enumerating every live-edge world (Kempe et al.).

    Each node independently picks one in-edge (probability = weight) or
    none; exponential in the product of in-degrees — keep graphs tiny.
    """
    seed_list = [seed for seed in seeds if seed in graph]
    nodes = list(graph.nodes())
    per_node_choices = []
    for node in nodes:
        options: list[tuple[User | None, float]] = []
        total_weight = 0.0
        for source in sorted(graph.in_neighbors(node), key=repr):
            weight = weights.get((source, node), 0.0)
            if weight > 0.0:
                options.append((source, weight))
                total_weight += weight
        options.append((None, 1.0 - total_weight))
        per_node_choices.append(options)
    total = 0.0
    for combo in itertools.product(*per_node_choices):
        weight = 1.0
        world = SocialGraph()
        for node in nodes:
            world.add_node(node)
        for node, (source, p) in zip(nodes, combo):
            weight *= p
            if source is not None:
                world.add_edge(source, node)
        if weight > 0.0:
            total += weight * len(world.reachable_from(seed_list))
    return total


def brute_force_set_credit(
    propagation: PropagationGraph,
    sources: set[User],
    target: User,
    credit: DirectCredit | None = None,
    allowed: set[User] | None = None,
) -> float:
    """``Gamma^W_{S,u}(a)`` by direct recursion over the propagation DAG.

    ``allowed`` is the node set W restricting paths (None = no
    restriction).  Direct credits are always computed on the whole
    propagation graph, as the paper specifies.
    """
    credit_fn = UniformCredit() if credit is None else credit

    def gamma(user: User) -> float:
        if user in sources:
            return 1.0
        if allowed is not None and user not in allowed:
            return 0.0
        total = 0.0
        for parent in propagation.parents(user):
            if allowed is not None and parent not in allowed and parent not in sources:
                continue
            total += gamma(parent) * credit_fn(propagation, parent, user)
        return total

    if allowed is not None and target not in allowed and target not in sources:
        return 0.0
    return gamma(target)


def naive_sigma_cd(
    graph: SocialGraph,
    log: ActionLog,
    seeds: Iterable[User],
    credit: DirectCredit | None = None,
) -> float:
    """``sigma_cd(S)`` recomputed independently of the library's evaluator."""
    seed_set = set(seeds)
    total = 0.0
    for action in log.actions():
        propagation = PropagationGraph.build(graph, log, action)
        for user in propagation.nodes():
            if user in seed_set:
                value = 1.0
            else:
                value = brute_force_set_credit(
                    propagation, seed_set, user, credit=credit
                )
            total += value / log.activity(user)
    return total


def reference_kappa(
    graph: SocialGraph,
    log: ActionLog,
    seeds: Iterable[User],
    credit: DirectCredit | None = None,
    actions: Iterable[Hashable] | None = None,
) -> dict[User, float]:
    """``kappa_{S,u}`` by the set-credit recursion over fresh propagation DAGs.

    Independent of the evaluator's columns: each action's
    :class:`PropagationGraph` is built anew and walked in chronological
    order, every gamma comes from the credit function, and ``A_u``
    counts the evaluated actions (``actions``, default all of the log's).
    A seed earns 1.0; any other user the sum, in
    :meth:`PropagationGraph.parents` order, of a parent's positive credit
    times a positive gamma.  Users come in the order of their first
    positive credit, so the evaluator must match values, dict order and
    floats bit for bit.
    """
    credit_fn = UniformCredit() if credit is None else credit
    seed_set = set(seeds)
    wanted = list(log.actions()) if actions is None else list(actions)
    activity: dict[User, int] = {}
    totals: dict[User, float] = {}
    for action in wanted:
        propagation = PropagationGraph.build(graph, log, action)
        gamma_s: dict[User, float] = {}
        for user in propagation.nodes():
            activity[user] = activity.get(user, 0) + 1
            if user in seed_set:
                value = 1.0
            else:
                value = 0.0
                for parent in propagation.parents(user):
                    source = gamma_s[parent]
                    gamma = credit_fn(propagation, parent, user)
                    if source > 0.0 and gamma > 0.0:
                        value += source * gamma
            gamma_s[user] = value
            if value > 0.0:
                totals[user] = totals.get(user, 0.0) + value
    return {user: total / activity[user] for user, total in totals.items()}


def nested_credits(index: CreditIndex) -> dict:
    """The index's live entries as ``{v: {a: {u: value}}}``, in layout order.

    A plain nested-dict copy, independent of the index's columns: the
    oracle :func:`reference_absorb_seed` works on it.
    """
    credits: dict = {}
    for influencer, action, influenced, value in index.entries():
        credits.setdefault(influencer, {}).setdefault(action, {})[
            influenced
        ] = value
    return credits


def flat_credits(credits: dict) -> list:
    """Every ``(v, a, u, value)`` of a nested-dict copy, in dict order."""
    return [
        (influencer, action, influenced, value)
        for influencer, by_action in credits.items()
        for action, targets in by_action.items()
        for influenced, value in targets.items()
    ]


def per_entry_discount(credits: dict, seed: User) -> None:
    """Lemma 2 for a new seed, one ``(v, a, u)`` decrement at a time.

    Target-major over a nested-dict copy, looking every source up by a
    scan of all rows: the reference that
    :meth:`CreditIndex.discount_through` and the NumPy Lemma-2 kernel
    must match exactly, in values and in entry order.  A missing entry
    is a no-op (under truncation that credit may never have been
    stored); an entry that falls to ``<= 1e-15`` is deleted.
    """
    for action, targets in credits.get(seed, {}).items():
        sources = {
            source: by_action[action][seed]
            for source, by_action in credits.items()
            if seed in by_action.get(action, {})
        }
        for target, seed_to_target in list(targets.items()):
            for source, source_to_seed in sources.items():
                row = credits[source][action]
                if target not in row:
                    continue
                remaining = row[target] - source_to_seed * seed_to_target
                if remaining <= 1e-15:
                    del row[target]
                else:
                    row[target] = remaining


def reference_absorb_seed(
    credits: dict, seed_credits: SeedCredits, seed: User
) -> None:
    """Algorithm 5 over a nested-dict copy (see :func:`nested_credits`)."""
    for action, targets in credits.get(seed, {}).items():
        factor = 1.0 - seed_credits.get(seed, action)
        if factor <= 0.0:
            continue
        for target, value in targets.items():
            seed_credits.add(target, action, value * factor)
    per_entry_discount(credits, seed)
    credits.pop(seed, None)
    for by_action in credits.values():
        for targets in by_action.values():
            targets.pop(seed, None)
    seed_credits.drop_user(seed)


def random_instance(
    seed: int,
    num_nodes: int = 8,
    num_actions: int = 6,
    edge_probability: float = 0.35,
) -> tuple[SocialGraph, ActionLog]:
    """A random small (graph, action log) pair for property tests."""
    rng = random.Random(seed)
    graph = SocialGraph()
    for node in range(num_nodes):
        graph.add_node(node)
    for source in range(num_nodes):
        for target in range(num_nodes):
            if source != target and rng.random() < edge_probability:
                graph.add_edge(source, target)
    log = ActionLog()
    for action_index in range(num_actions):
        participants = rng.sample(
            range(num_nodes), k=rng.randint(1, num_nodes)
        )
        time = 0.0
        for user in participants:
            time += rng.uniform(0.1, 3.0)
            log.add(user, f"a{action_index}", time)
    return graph, log
