"""Property-based tests for the extension algorithms.

Hypothesis-driven invariants tying the new modules to each other and to
the paper's core machinery:

* the greedy family (greedy / CELF) is extensionally equal on
  deterministic submodular oracles;
* the RIS estimator is consistent with possible-world semantics
  (bounds, monotonicity in the seed set);
* SimPath with eta = 0 equals exact live-edge LT enumeration;
* folding a growing log through ``repro.stream.fold_delta`` equals one
  scan of the union under any pattern of closes, pending tuples carried
  from fold to fold;
* query-API identities: ``sigma_cd({v}) = 1 + sum_u kappa_{v,u}`` and
  ``explain_spread`` never exceeds the per-action credit cap.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SelectionContext
from repro.core.maximize import cd_maximize
from repro.core.queries import explain_spread, kappa, most_influential
from repro.core.scan import scan_action_log
from repro.core.sketch import generate_sketches
from repro.data.actionlog import ActionLog
from repro.kernels import available_backends
from repro.maximization.celf import celf_maximize
from repro.maximization.greedy import greedy_maximize
from repro.maximization.simpath import simpath_spread
from repro.store.serialize import dump_payload
from repro.stream import ActionLogDelta, fold_delta
from repro.stream.update import _credit_index_parity
from tests.helpers import exact_lt_spread, random_instance


class DeterministicCoverage:
    """Random—but fixed—coverage oracle (monotone submodular)."""

    def __init__(self, rng_seed: int, num_nodes: int, universe: int) -> None:
        import random

        rng = random.Random(rng_seed)
        self._coverage = {
            node: frozenset(
                rng.sample(range(universe), k=rng.randint(0, universe // 2))
            )
            for node in range(num_nodes)
        }

    def spread(self, seeds) -> float:
        covered = set()
        for seed in seeds:
            covered |= self._coverage.get(seed, frozenset())
        return float(len(covered))

    def candidates(self):
        return list(self._coverage)


class TestGreedyFamilyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        rng_seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=5),
    )
    def test_every_variant_picks_a_true_argmax(self, rng_seed, k):
        """The tie-robust greedy invariant.

        Different tie-breaks can legitimately diverge in total spread
        (greedy is only (1-1/e)-optimal), so the property that must hold
        for both algorithms is: each selected seed's marginal gain
        equals the best available marginal gain at its step.
        """
        oracle = DeterministicCoverage(rng_seed, num_nodes=12, universe=30)
        for runner in (greedy_maximize, celf_maximize):
            result = runner(oracle, k)
            selected = []
            for seed, gain in zip(result.seeds, result.gains):
                base = oracle.spread(selected)
                best = max(
                    oracle.spread(selected + [node]) - base
                    for node in oracle.candidates()
                    if node not in selected
                )
                assert gain == pytest.approx(best)
                assert oracle.spread(selected + [seed]) - base == (
                    pytest.approx(gain)
                )
                selected.append(seed)

    @settings(max_examples=15, deadline=None)
    @given(rng_seed=st.integers(min_value=0, max_value=10_000))
    def test_gains_non_increasing_everywhere(self, rng_seed):
        oracle = DeterministicCoverage(rng_seed, num_nodes=10, universe=25)
        for runner in (greedy_maximize, celf_maximize):
            gains = runner(oracle, 6).gains
            for earlier, later in zip(gains, gains[1:]):
                assert later <= earlier + 1e-9


class TestRISProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_estimate_bounds(self, seed):
        graph, _ = random_instance(seed=seed, num_nodes=10, num_actions=1)
        probabilities = {edge: 0.4 for edge in graph.edges()}
        sketches = generate_sketches(graph, probabilities, 300, seed=seed)
        seeds = [0, 1]
        estimate = sketches.estimate_spread(seeds)
        assert 0.0 <= estimate <= graph.num_nodes

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_monotone_in_seed_set(self, seed):
        graph, _ = random_instance(seed=seed, num_nodes=10, num_actions=1)
        probabilities = {edge: 0.4 for edge in graph.edges()}
        sketches = generate_sketches(graph, probabilities, 200, seed=seed)
        nodes = list(graph.nodes())
        previous = 0.0
        for size in range(1, 5):
            estimate = sketches.estimate_spread(nodes[:size])
            assert estimate >= previous - 1e-9
            previous = estimate

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_all_nodes_cover_everything(self, seed):
        graph, _ = random_instance(seed=seed, num_nodes=8, num_actions=1)
        probabilities = {edge: 0.5 for edge in graph.edges()}
        sketches = generate_sketches(graph, probabilities, 100, seed=seed)
        assert sketches.estimate_spread(list(graph.nodes())) == (
            pytest.approx(graph.num_nodes)
        )


class TestSimPathExactness:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_equals_live_edge_enumeration(self, seed, k):
        graph, _ = random_instance(seed=seed, num_nodes=6, num_actions=1)
        weights = {
            (source, target): 1.0 / graph.in_degree(target)
            for source, target in graph.edges()
        }
        seeds = list(graph.nodes())[:k]
        assert simpath_spread(graph, weights, seeds, eta=0.0) == (
            pytest.approx(exact_lt_spread(graph, weights, seeds))
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        eta=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_pruning_never_overestimates(self, seed, eta):
        graph, _ = random_instance(seed=seed, num_nodes=7, num_actions=1)
        weights = {
            (source, target): 1.0 / graph.in_degree(target)
            for source, target in graph.edges()
        }
        seeds = list(graph.nodes())[:2]
        exact = simpath_spread(graph, weights, seeds, eta=0.0)
        pruned = simpath_spread(graph, weights, seeds, eta=eta)
        assert pruned <= exact + 1e-9


class TestStreamingEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        close_pattern=st.lists(
            st.booleans(), min_size=6, max_size=6
        ),
    )
    def test_any_interleaving_equals_batch(self, seed, close_pattern):
        """Each action's trace arrives in its own delta; a delta closes
        every open action when its ``close_pattern`` entry is set, and a
        last delta closes the rest, so open traces ride from fold to
        fold as pending tuples.  The folded index is byte-identical to
        one scan of the union on python, and within the kernel parity
        contract on numpy (whose merge order depends on the batch)."""
        graph, log = random_instance(seed=seed, num_nodes=8, num_actions=6)
        plan, opened = [], []  # per delta: (arriving actions, closed ones)
        for action, close_now in zip(log.actions(), close_pattern):
            opened.append(action)
            plan.append(([action], opened if close_now else []))
            if close_now:
                opened = []
        plan.append(([], opened))
        union = ActionLog()
        for _arriving, closing in plan:
            for action in closing:
                for user, time in log.trace(action):
                    union.add(user, action, time)

        for backend in available_backends():
            context = SelectionContext(
                graph, ActionLog(), credit_scheme="uniform",
                truncation=0.0, backend=backend,
            )
            context.credit_index()
            pending: list = []
            for arriving, closing in plan:
                delta = ActionLogDelta()
                for action in arriving:
                    for user, time in log.trace(action):
                        delta.add(user, action, time)
                for action in closing:
                    delta.close(action)
                fold = fold_delta(context, delta, pending=pending)
                context, pending = fold.context, fold.pending
            assert pending == []
            assert list(context.train_log.tuples()) == list(union.tuples())
            got = context.credit_index()
            expected = SelectionContext(
                graph, union, credit_scheme="uniform",
                truncation=0.0, backend=backend,
            ).credit_index()
            if backend == "python":
                assert dump_payload(got) == dump_payload(expected)
            else:
                assert _credit_index_parity(got, expected)


class TestQueryIdentities:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_leaderboard_scores_are_kappa_sums(self, seed):
        graph, log = random_instance(seed=seed, num_nodes=8, num_actions=5)
        index = scan_action_log(graph, log, truncation=0.0)
        for user, score in most_influential(index, limit=3):
            total = sum(
                kappa(index, user, other)
                for other in index.activity
                if other != user
            )
            assert score == pytest.approx(total)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_explain_total_matches_first_greedy_gain(self, seed):
        graph, log = random_instance(seed=seed, num_nodes=9, num_actions=6)
        index = scan_action_log(graph, log, truncation=0.0)
        result = cd_maximize(index, k=1, mutate=False)
        breakdown = explain_spread(index, result.seeds)
        assert breakdown.total == pytest.approx(result.spread, rel=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_kappa_at_most_one(self, seed):
        graph, log = random_instance(seed=seed, num_nodes=8, num_actions=5)
        index = scan_action_log(graph, log, truncation=0.0)
        users = list(index.activity)
        for influencer in users[:4]:
            for influenced in users[:4]:
                value = kappa(index, influencer, influenced)
                assert 0.0 <= value <= 1.0 + 1e-9
