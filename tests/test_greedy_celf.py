"""Tests for repro.maximization.greedy and repro.maximization.celf.

CELF must select exactly the same seeds as plain greedy for any
deterministic oracle (the Leskovec et al. guarantee), with fewer oracle
calls.
"""

import pytest

import repro.kernels as kernels
from repro.api import SelectionContext
from repro.maximization.celf import celf_maximize
from repro.maximization.greedy import greedy_maximize
from repro.maximization.oracle import CountingOracle
from repro.runtime import SpreadEstimator


class SetCoverOracle:
    """Deterministic submodular oracle: spread = size of covered union."""

    def __init__(self, coverage: dict):
        self._coverage = coverage

    def candidates(self):
        return list(self._coverage)

    def spread(self, seeds):
        covered = set()
        for seed in seeds:
            covered |= self._coverage.get(seed, set())
        return float(len(covered))


@pytest.fixture()
def cover_oracle():
    # Marginal gains are distinct at every greedy stage, so greedy and
    # CELF have a unique optimal trajectory (no tie-break ambiguity).
    return SetCoverOracle(
        {
            "a": {1, 2, 3, 4},
            "b": {5, 6, 7},
            "c": {8, 9},
            "d": {10},
            "e": {1, 5, 8},
        }
    )


class TestGreedy:
    def test_selects_best_first(self, cover_oracle):
        result = greedy_maximize(cover_oracle, k=1)
        assert result.seeds == ["a"]
        assert result.spread == 4.0

    def test_marginal_gains_non_increasing(self, cover_oracle):
        result = greedy_maximize(cover_oracle, k=5)
        assert result.gains == sorted(result.gains, reverse=True)

    def test_respects_k(self, cover_oracle):
        assert len(greedy_maximize(cover_oracle, k=3).seeds) == 3

    def test_k_larger_than_candidates(self, cover_oracle):
        result = greedy_maximize(cover_oracle, k=100)
        assert len(result.seeds) == 5

    def test_k_zero(self, cover_oracle):
        result = greedy_maximize(cover_oracle, k=0)
        assert result.seeds == []
        assert result.spread == 0.0

    def test_negative_k_raises(self, cover_oracle):
        with pytest.raises(ValueError):
            greedy_maximize(cover_oracle, k=-1)

    def test_explicit_candidate_pool(self, cover_oracle):
        result = greedy_maximize(cover_oracle, k=2, candidates=["c", "d"])
        assert set(result.seeds) == {"c", "d"}

    def test_spread_matches_oracle(self, cover_oracle):
        result = greedy_maximize(cover_oracle, k=3)
        assert result.spread == cover_oracle.spread(result.seeds)

    def test_oracle_calls_counted(self, cover_oracle):
        result = greedy_maximize(cover_oracle, k=2)
        assert result.oracle_calls == 5 + 4

    def test_seeds_at_prefix(self, cover_oracle):
        result = greedy_maximize(cover_oracle, k=3)
        assert result.seeds_at(2) == result.seeds[:2]


class TestCELF:
    def test_matches_greedy_seeds(self, cover_oracle):
        greedy = greedy_maximize(cover_oracle, k=4)
        celf = celf_maximize(cover_oracle, k=4)
        assert celf.seeds == greedy.seeds

    def test_matches_greedy_gains(self, cover_oracle):
        greedy = greedy_maximize(cover_oracle, k=4)
        celf = celf_maximize(cover_oracle, k=4)
        assert celf.gains == pytest.approx(greedy.gains)

    def test_fewer_or_equal_oracle_calls(self, cover_oracle):
        greedy = greedy_maximize(cover_oracle, k=4)
        celf = celf_maximize(cover_oracle, k=4)
        assert celf.oracle_calls <= greedy.oracle_calls

    def test_matches_greedy_on_cd_instance(self, flixster_mini):
        """CELF == greedy on a real sigma_cd oracle."""
        from repro.core.spread import CDSpreadEvaluator

        evaluator = CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)
        greedy = greedy_maximize(evaluator, k=3)
        celf = celf_maximize(evaluator, k=3)
        assert celf.seeds == greedy.seeds

    def test_k_zero(self, cover_oracle):
        assert celf_maximize(cover_oracle, k=0).seeds == []

    def test_negative_k_raises(self, cover_oracle):
        with pytest.raises(ValueError):
            celf_maximize(cover_oracle, k=-2)

    def test_time_log_records_each_seed(self, cover_oracle):
        times = []
        celf_maximize(cover_oracle, k=3, time_log=times)
        assert [count for count, _ in times] == [1, 2, 3]
        elapsed = [t for _, t in times]
        assert elapsed == sorted(elapsed)

    def test_counting_oracle_integration(self, cover_oracle):
        counting = CountingOracle(cover_oracle)
        result = celf_maximize(counting, k=3)
        assert counting.calls == result.oracle_calls


class _MemoOracle:
    """Evaluates each distinct seed *set* once.

    Sound only because a Monte-Carlo oracle's answer depends on the set
    alone: every set is scored on the same counter-keyed worlds.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._spreads: dict[frozenset, float] = {}

    def candidates(self):
        return self._inner.candidates()

    def spread(self, seeds) -> float:
        key = frozenset(seeds)
        if key not in self._spreads:
            self._spreads[key] = self._inner.spread(seeds)
        return self._spreads[key]


WORLDS = 200
K = 5


@pytest.fixture(scope="module", params=["ic", "lt"])
def monte_carlo_runs(request, flixster_mini):
    """CELF and greedy over one Monte-Carlo oracle (200 worlds).

    Oracle seed 4 gives steps whose best marginal counts are unique.
    """
    graph = flixster_mini.graph
    context = SelectionContext(graph, flixster_mini.log)
    backend = "numpy" if kernels.numpy_available() else "python"
    if request.param == "ic":
        inner = SpreadEstimator(
            graph, context.ic_probabilities("EM"), "ic",
            num_simulations=WORLDS, seed=4, backend=backend,
        )
    else:
        inner = SpreadEstimator(
            graph, context.lt_weights(), "lt",
            num_simulations=WORLDS, seed=4, backend=backend,
        )
    oracle = _MemoOracle(inner)
    runs = {
        name: maximize(oracle, K).seeds
        for name, maximize in (
            ("celf", celf_maximize),
            ("greedy", greedy_maximize),
        )
    }
    return oracle, runs


def _count(oracle, seeds) -> int:
    """The integer active count over the worlds behind ``spread``."""
    return round(oracle.spread(seeds) * WORLDS)


def _sweep_gains(oracle, chosen) -> dict:
    base = _count(oracle, chosen)
    return {
        node: _count(oracle, chosen + [node]) - base
        for node in oracle.candidates()
        if node not in chosen
    }


class TestMonteCarloGreedyAgreement:
    """On counter-keyed worlds sigma-hat is a coverage function, so the
    lazy maximizers are exact greedy."""

    @pytest.mark.parametrize("name", ["celf", "greedy"])
    def test_every_lazy_pick_attains_the_step_maximum(
        self, monte_carlo_runs, name
    ):
        oracle, runs = monte_carlo_runs
        chosen: list = []
        for pick in runs[name]:
            gains = _sweep_gains(oracle, chosen)
            assert gains[pick] == max(gains.values())
            chosen.append(pick)

    def test_celf_and_greedy_pick_the_same_seeds(self, monte_carlo_runs):
        oracle, runs = monte_carlo_runs
        chosen: list = []
        for pick in runs["greedy"]:
            gains = sorted(_sweep_gains(oracle, chosen).values(), reverse=True)
            assert gains[0] > gains[1], "the instance must have no ties"
            chosen.append(pick)
        assert runs["celf"] == runs["greedy"]
