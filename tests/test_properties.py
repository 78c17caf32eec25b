"""Property-based tests (hypothesis) for the library's core invariants.

These encode the paper's theorems as executable properties over random
instances:

* Theorem 2 — ``sigma_cd`` is monotone and submodular;
* Monte-Carlo ``sigma_IC``/``sigma_LT`` on counter-keyed worlds is a
  coverage function, so monotone and submodular as well;
* credit conservation — direct credits per activation sum to <= 1;
* propagation graphs are DAGs;
* Lemmas 1-3 — the incremental credit identities;
* the LazyQueue is a faithful max-priority queue.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.api import SelectionContext

from repro.core.credit import UniformCredit
from repro.core.index import SeedCredits
from repro.core.maximize import _absorb_seed, cd_maximize, marginal_gain
from repro.core.scan import scan_action_log
from repro.core.spread import CDSpreadEvaluator
from repro.data.actionlog import ActionLog
from repro.data.propagation import PropagationGraph
from repro.graphs.digraph import SocialGraph
from repro.runtime import SpreadEstimator
from repro.utils.pqueue import LazyQueue

from tests.helpers import (
    brute_force_set_credit,
    flat_credits,
    nested_credits,
    reference_absorb_seed,
)


@st.composite
def graph_and_log(draw, max_nodes=8, max_actions=5):
    """A random small social graph with a consistent action log."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = SocialGraph()
    for node in range(num_nodes):
        graph.add_node(node)
    for source in range(num_nodes):
        for target in range(num_nodes):
            if source != target and rng.random() < 0.4:
                graph.add_edge(source, target)
    log = ActionLog()
    num_actions = draw(st.integers(min_value=1, max_value=max_actions))
    for index in range(num_actions):
        participants = rng.sample(range(num_nodes), rng.randint(1, num_nodes))
        time = 0.0
        for user in participants:
            time += rng.uniform(0.5, 2.0)
            log.add(user, f"a{index}", time)
    return graph, log


@st.composite
def seed_sets(draw, universe_size=8):
    """Nested seed sets S subset T and an extra node x outside T."""
    nodes = list(range(universe_size))
    extra = draw(st.sampled_from(nodes))
    remaining = [node for node in nodes if node != extra]
    t_size = draw(st.integers(min_value=0, max_value=len(remaining)))
    t_nodes = draw(
        st.permutations(remaining).map(lambda p: list(p[:t_size]))
    )
    s_size = draw(st.integers(min_value=0, max_value=t_size))
    return t_nodes[:s_size], t_nodes, extra


class TestSigmaCDProperties:
    @given(data=graph_and_log(), sets=seed_sets())
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, data, sets):
        graph, log = data
        smaller, larger, _ = sets
        evaluator = CDSpreadEvaluator(graph, log)
        assert (
            evaluator.spread(larger) >= evaluator.spread(smaller) - 1e-9
        )

    @given(data=graph_and_log(), sets=seed_sets())
    @settings(max_examples=60, deadline=None)
    def test_submodular(self, data, sets):
        """Theorem 2: gain of x shrinks as the seed set grows."""
        graph, log = data
        smaller, larger, extra = sets
        evaluator = CDSpreadEvaluator(graph, log)
        gain_small = evaluator.spread(smaller + [extra]) - evaluator.spread(smaller)
        gain_large = evaluator.spread(larger + [extra]) - evaluator.spread(larger)
        assert gain_small >= gain_large - 1e-9

    @given(data=graph_and_log())
    @settings(max_examples=40, deadline=None)
    def test_spread_bounded_by_user_count(self, data):
        graph, log = data
        evaluator = CDSpreadEvaluator(graph, log)
        everyone = evaluator.candidates()
        assert evaluator.spread(everyone) <= len(everyone) + 1e-9


WORLDS = 100


@pytest.fixture(scope="module")
def keyed_estimators(flixster_mini):
    """Monte-Carlo estimators over flixster_mini: WC-probability IC and
    learned-weight LT, 100 worlds each."""
    graph = flixster_mini.graph
    context = SelectionContext(graph, flixster_mini.log)
    backend = "numpy" if kernels.numpy_available() else "python"
    nodes = sorted(graph.nodes())
    return {
        model: SpreadEstimator(
            graph, values, model, WORLDS, seed=13, backend=backend
        )
        for model, values in (
            ("ic", context.ic_probabilities("WC")),
            ("lt", context.lt_weights()),
        )
    }, nodes


class TestKeyedWorldProperties:
    """Every seed set is scored on the same worlds, so the estimate is
    ``sum_i |reach_i(S)| / N``: a coverage function."""

    @pytest.mark.parametrize("model", ["ic", "lt"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_monotone_and_submodular(self, keyed_estimators, model, data):
        estimators, nodes = keyed_estimators
        estimator = estimators[model]
        drawn = data.draw(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=9, unique=True)
        )
        extra, larger = drawn[0], drawn[1:]
        smaller = larger[: data.draw(st.integers(0, len(larger)))]

        def count(seeds) -> int:
            return round(estimator.spread(seeds) * WORLDS)

        assert count(smaller) <= count(larger)
        assert (
            count(larger + [extra]) - count(larger)
            <= count(smaller + [extra]) - count(smaller)
        )


class TestCreditProperties:
    @given(data=graph_and_log())
    @settings(max_examples=40, deadline=None)
    def test_direct_credits_sum_to_at_most_one(self, data):
        graph, log = data
        credit = UniformCredit()
        for action in log.actions():
            propagation = PropagationGraph.build(graph, log, action)
            for user in propagation.nodes():
                parents = propagation.parents(user)
                if parents:
                    total = sum(
                        credit(propagation, parent, user) for parent in parents
                    )
                    assert total <= 1.0 + 1e-9

    @given(data=graph_and_log())
    @settings(max_examples=40, deadline=None)
    def test_propagation_graphs_are_acyclic(self, data):
        graph, log = data
        for action in log.actions():
            propagation = PropagationGraph.build(graph, log, action)
            # Edges respect strict time order, so following edges can
            # never revisit a node.
            for influencer, influenced in propagation.edges():
                assert propagation.time_of(influencer) < propagation.time_of(
                    influenced
                )

    @given(data=graph_and_log())
    @settings(max_examples=30, deadline=None)
    def test_total_credit_bounded_by_one(self, data):
        """Gamma_{v,u}(a) <= 1 for every pair (flow conservation)."""
        graph, log = data
        index = scan_action_log(graph, log, truncation=0.0)
        for _, _, _, value in index.entries():
            assert value <= 1.0 + 1e-9


class TestLemmaProperties:
    @given(data=graph_and_log(), x=st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_theorem3_first_marginal_gain(self, data, x):
        """marginal_gain on a fresh index == sigma_cd({x})."""
        graph, log = data
        if x not in graph:
            return
        index = scan_action_log(graph, log, truncation=0.0)
        evaluator = CDSpreadEvaluator(graph, log)
        gain = marginal_gain(index, SeedCredits(), x)
        assert gain >= 0.0
        assert abs(gain - evaluator.spread([x])) < 1e-9

    @given(data=graph_and_log())
    @settings(max_examples=30, deadline=None)
    def test_lemma1_set_credit_decomposition(self, data):
        """Gamma_{S,u} = sum_{v in S} Gamma^{V-S+v}_{v,u} (Lemma 1)."""
        graph, log = data
        nodes = list(graph.nodes())
        seed_set = set(nodes[:2])
        for action in log.actions():
            propagation = PropagationGraph.build(graph, log, action)
            all_nodes = set(propagation.nodes())
            for target in propagation.nodes():
                if target in seed_set:
                    continue
                combined = brute_force_set_credit(propagation, seed_set, target)
                decomposed = sum(
                    brute_force_set_credit(
                        propagation,
                        {member},
                        target,
                        allowed=(all_nodes - seed_set) | {member},
                    )
                    for member in seed_set
                )
                assert abs(combined - decomposed) < 1e-9

    @given(data=graph_and_log())
    @settings(max_examples=25, deadline=None)
    def test_incremental_gains_telescope(self, data):
        """Sum of cd_maximize gains == sigma_cd of the selected set."""
        graph, log = data
        index = scan_action_log(graph, log, truncation=0.0)
        result = cd_maximize(index, k=3)
        evaluator = CDSpreadEvaluator(graph, log)
        assert abs(result.spread - evaluator.spread(result.seeds)) < 1e-9


class TestLemma2Properties:
    """The columnar Lemma-2 update against the nested-dict oracle."""

    @pytest.mark.parametrize(
        "backend", ["python"] + (
            ["numpy"] if "numpy" in kernels.available_backends() else []
        ),
    )
    @given(
        data=graph_and_log(),
        order=st.lists(st.integers(min_value=0, max_value=7), max_size=8),
        truncation=st.sampled_from([0.0, 0.05, 0.3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_live_entries_equal_the_oracle(self, backend, data, order, truncation):
        """After any sequence of absorbed seeds, repeats included, the
        index's live entries (values and layout order) and the seed
        credits (values and dict order) equal the oracle's."""
        graph, log = data
        index = scan_action_log(graph, log, truncation=truncation)
        users = list(index.users())
        if backend == "numpy":
            from repro.kernels.cd_numpy import CDEngine

            engine = CDEngine(index)
        else:
            engine = None
            credits = SeedCredits()
        oracle, oracle_credits = nested_credits(index), SeedCredits()
        for position in order:
            seed = users[position % len(users)]
            if engine is None:
                _absorb_seed(index, credits, seed)
            else:
                engine.absorb(seed)
                credits = engine.seed_credits()
            reference_absorb_seed(oracle, oracle_credits, seed)
            assert list(index.entries()) == flat_credits(oracle)
            assert list(credits._credits.items()) == list(
                oracle_credits._credits.items()
            )
            assert list(credits._sums.items()) == list(
                oracle_credits._sums.items()
            )


class TestLazyQueueProperties:
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 100), st.floats(-100, 100)),
            min_size=0,
            max_size=50,
        )
    )
    @settings(max_examples=80)
    def test_drain_is_sorted_by_gain(self, entries):
        queue = LazyQueue()
        for item, gain in entries:
            queue.push(item, gain, 0)
        gains = [entry.gain for entry in queue.drain()]
        assert gains == sorted(gains, reverse=True)

    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 100), st.floats(-100, 100)),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=80)
    def test_drain_preserves_multiset(self, entries):
        queue = LazyQueue()
        for item, gain in entries:
            queue.push(item, gain, 0)
        drained = sorted((entry.item, entry.gain) for entry in queue.drain())
        assert drained == sorted(entries)
