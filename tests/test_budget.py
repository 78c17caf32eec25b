"""Tests for repro.core.budget (cost-aware CD maximization, CEF rule).

The decisive checks:

* with unit costs and budget k, the budgeted maximizer degenerates to
  exactly ``cd_maximize(k)``;
* the selected set never exceeds the budget;
* the CEF max-of-two rule beats either pass alone on an instance
  engineered so the benefit pass overspends on a costly node;
* the reported spread equals exact ``sigma_cd`` recomputation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import _budget_pass, cd_budget_maximize
from repro.core.maximize import cd_maximize
from repro.core.scan import scan_action_log
from repro.core.spread import CDSpreadEvaluator
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.kernels import available_backends

from tests.helpers import random_instance


def _deterministic_costs(index, levels: int = 5) -> dict:
    """Varied but run-independent per-node costs (1.0 .. levels)."""
    ranked = sorted(index.users(), key=repr)
    return {user: 1.0 + (position % levels) for position, user in enumerate(ranked)}


class TestBudgetBasics:
    def test_zero_budget_selects_nothing(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        result = cd_budget_maximize(index, budget=0.0)
        assert result.seeds == []
        assert result.spread == 0.0
        assert result.spent == 0.0

    def test_negative_budget_rejected(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        with pytest.raises(ValueError):
            cd_budget_maximize(index, budget=-1.0)

    def test_non_positive_cost_rejected(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        with pytest.raises(ValueError):
            cd_budget_maximize(index, budget=5.0, costs={"v": 0.0})
        with pytest.raises(ValueError):
            cd_budget_maximize(index, budget=5.0, costs={"v": -2.0})

    def test_non_positive_default_cost_rejected(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        with pytest.raises(ValueError):
            cd_budget_maximize(index, budget=5.0, default_cost=0.0)

    def test_budget_respected(self, flixster_mini):
        index = scan_action_log(flixster_mini.graph, flixster_mini.log)
        costs = _deterministic_costs(index)
        result = cd_budget_maximize(index, budget=7.5, costs=costs)
        assert result.spent <= 7.5 + 1e-9
        assert result.spent == pytest.approx(sum(result.costs))
        assert len(result.costs) == len(result.seeds)

    def test_does_not_mutate_index(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        entries_before = index.total_entries
        cd_budget_maximize(index, budget=3.0)
        assert index.total_entries == entries_before

    def test_spread_matches_exact_evaluator(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        result = cd_budget_maximize(index, budget=2.0)
        evaluator = CDSpreadEvaluator(toy.graph, toy.log)
        assert result.spread == pytest.approx(evaluator.spread(result.seeds))


class TestUnitCostDegeneration:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 3])
    def test_unit_costs_reduce_to_cd_maximize(self, seed, k):
        """With all costs 1 and budget k, both passes are plain greedy."""
        graph, log = random_instance(seed)
        index = scan_action_log(graph, log, truncation=0.0)
        budgeted = cd_budget_maximize(index, budget=float(k))
        plain = cd_maximize(index, k=k)
        assert budgeted.seeds == plain.seeds
        assert budgeted.spread == pytest.approx(plain.spread, abs=1e-9)


class TestCEFRule:
    @staticmethod
    def _star_instance() -> tuple[SocialGraph, ActionLog]:
        """A hub influencing many leaves, plus two mid-range users.

        Engineered so the hub is the best node but unaffordable together
        with anything else, while two cheap mid nodes jointly beat it.
        """
        graph = SocialGraph()
        leaves = [f"leaf{i}" for i in range(6)]
        for leaf in leaves:
            graph.add_edge("hub", leaf)
        graph.add_edge("mid1", "leaf0")
        graph.add_edge("mid1", "leaf1")
        graph.add_edge("mid1", "leaf2")
        graph.add_edge("mid2", "leaf3")
        graph.add_edge("mid2", "leaf4")
        graph.add_edge("mid2", "leaf5")
        log = ActionLog()
        for action in range(6):
            name = f"a{action}"
            log.add("hub", name, 1.0)
            log.add("mid1", name, 1.5)
            log.add("mid2", name, 1.5)
            for offset, leaf in enumerate(leaves):
                log.add(leaf, name, 2.0 + 0.1 * offset)
        return graph, log

    def test_ratio_pass_rescues_overspending_benefit_pass(self):
        graph, log = self._star_instance()
        index = scan_action_log(graph, log, truncation=0.0)
        # hub costs the whole budget; the two mids together fit in it.
        costs = {"hub": 4.0, "mid1": 2.0, "mid2": 2.0}
        result = cd_budget_maximize(
            index, budget=4.0, costs=costs, default_cost=10.0
        )
        evaluator = CDSpreadEvaluator(graph, log)
        hub_alone = evaluator.spread(["hub"])
        mids = evaluator.spread(["mid1", "mid2"])
        assert mids > hub_alone  # the engineered premise
        assert result.spread == pytest.approx(mids)
        assert set(result.seeds) == {"mid1", "mid2"}
        assert result.rule == "ratio"

    def test_winner_at_least_as_good_as_either_pass(self):
        """CEF returns max(benefit, ratio) — verified via rule flip."""
        graph, log = self._star_instance()
        index = scan_action_log(graph, log, truncation=0.0)
        # With generous budget the benefit pass can afford everything,
        # so it must win or tie.
        result = cd_budget_maximize(
            index, budget=100.0, costs={"hub": 4.0}, default_cost=1.0
        )
        everything = cd_maximize(index, k=len(index.activity))
        assert result.spread == pytest.approx(everything.spread, abs=1e-9)


class TestLazyPassEqualsNaiveGreedy:
    """The CELF-lazy budget passes must match plain budgeted greedy.

    Lazy evaluation (stale priorities as upper bounds) and permanent
    discarding of unaffordable nodes (the budget only shrinks) are both
    exactness-preserving; this cross-validates the optimised passes
    against a naive recompute-everything implementation.
    """

    @staticmethod
    def _naive_pass(graph, log, costs, budget, by_ratio):
        evaluator = CDSpreadEvaluator(graph, log)
        chosen: list = []
        current = 0.0
        remaining = budget
        candidates = sorted(
            {user for user, _, _ in log.tuples()}, key=repr
        )
        while True:
            best, best_key, best_spread = None, 0.0, current
            for user in candidates:
                if user in chosen or costs.get(user, 1.0) > remaining:
                    continue
                spread = evaluator.spread(chosen + [user])
                gain = spread - current
                key = gain / costs.get(user, 1.0) if by_ratio else gain
                if key > best_key:
                    best, best_key, best_spread = user, key, spread
            if best is None:
                return chosen, current
            chosen.append(best)
            current = best_spread
            remaining -= costs.get(best, 1.0)

    @pytest.mark.parametrize("by_ratio", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_pass_matches_naive(self, seed, by_ratio):
        graph, log = random_instance(seed, num_nodes=6, num_actions=4)
        index = scan_action_log(graph, log, truncation=0.0)
        costs = _deterministic_costs(index, levels=3)
        budget = 5.0
        naive_seeds, naive_spread = self._naive_pass(
            graph, log, costs, budget, by_ratio
        )
        for backend in available_backends():
            lazy = _budget_pass(
                index, budget, lambda user: costs.get(user, 1.0), by_ratio,
                backend,
            )
            lazy_seeds, lazy_gains = lazy.seeds, lazy.gains
            # Seed identity can differ only on exact key ties; the achieved
            # spread (and the spend pattern it implies) must agree.
            assert sum(lazy_gains) == pytest.approx(naive_spread, abs=1e-9)
            assert len(lazy_seeds) == len(naive_seeds)


class TestBudgetProperties:
    @given(
        instance_seed=st.integers(min_value=0, max_value=30),
        budget=st.floats(min_value=0.0, max_value=8.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_budget_never_exceeded_and_spread_consistent(
        self, instance_seed, budget
    ):
        graph, log = random_instance(instance_seed, num_nodes=6, num_actions=4)
        index = scan_action_log(graph, log, truncation=0.0)
        costs = _deterministic_costs(index, levels=4)
        result = cd_budget_maximize(index, budget=budget, costs=costs)
        assert result.spent <= budget + 1e-9
        evaluator = CDSpreadEvaluator(graph, log)
        assert result.spread == pytest.approx(
            evaluator.spread(result.seeds), abs=1e-9
        )

    @given(instance_seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_budget_under_unit_costs(self, instance_seed):
        """With unit costs the budget is k, and greedy prefixes nest.

        (For general costs greedy-budgeted spread is *not* provably
        monotone in the budget — an expensive early pick can crowd out
        better cheap combinations — so monotonicity is asserted only in
        the unit-cost regime where it is a theorem.)
        """
        graph, log = random_instance(instance_seed, num_nodes=6, num_actions=4)
        index = scan_action_log(graph, log, truncation=0.0)
        previous = 0.0
        for budget in (1.0, 2.0, 4.0, 8.0):
            spread = cd_budget_maximize(index, budget=budget).spread
            assert spread >= previous - 1e-9
            previous = spread

    @given(instance_seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_full_budget_selects_everything_profitable(self, instance_seed):
        """A budget covering all costs reaches the unconstrained optimum."""
        graph, log = random_instance(instance_seed, num_nodes=6, num_actions=4)
        index = scan_action_log(graph, log, truncation=0.0)
        costs = _deterministic_costs(index, levels=3)
        total_cost = sum(costs.values())
        budgeted = cd_budget_maximize(index, budget=total_cost, costs=costs)
        everything = cd_maximize(index, k=len(index.activity))
        assert budgeted.spread == pytest.approx(everything.spread, abs=1e-9)
