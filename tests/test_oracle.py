"""Tests for the spread-oracle protocol and its Monte-Carlo oracle."""

import pytest

import repro.kernels as kernels
from repro.api import SelectionContext
from repro.graphs.digraph import SocialGraph
from repro.maximization.oracle import CountingOracle
from repro.runtime import SpreadEstimator

BACKENDS = ["python"] + (
    ["numpy"] if "numpy" in kernels.available_backends() else []
)


@pytest.fixture()
def graph():
    return SocialGraph.from_edges([(0, 1), (1, 2), (0, 2)])


class TestICOracle:
    def test_candidates_are_all_nodes(self, graph):
        oracle = SpreadEstimator(graph, {}, "ic", num_simulations=1)
        assert sorted(oracle.candidates()) == [0, 1, 2]

    def test_spread_deterministic_per_seed_set(self, graph):
        probabilities = {edge: 0.5 for edge in graph.edges()}
        oracle = SpreadEstimator(
            graph, probabilities, "ic", num_simulations=50, seed=1
        )
        assert oracle.spread([0]) == oracle.spread([0])

    def test_spread_independent_of_seed_order(self, graph):
        probabilities = {edge: 0.5 for edge in graph.edges()}
        oracle = SpreadEstimator(
            graph, probabilities, "ic", num_simulations=50, seed=1
        )
        assert oracle.spread([0, 1]) == oracle.spread([1, 0])

    def test_different_base_seeds_differ(self, graph):
        probabilities = {edge: 0.5 for edge in graph.edges()}
        first = SpreadEstimator(
            graph, probabilities, "ic", num_simulations=20, seed=1
        )
        second = SpreadEstimator(
            graph, probabilities, "ic", num_simulations=20, seed=2
        )
        # Not guaranteed different, but overwhelmingly likely.
        assert first.spread([0]) != second.spread([0])

    def test_invalid_simulations_raise(self, graph):
        with pytest.raises(ValueError):
            SpreadEstimator(graph, {}, "ic", num_simulations=0)


class TestLTOracle:
    def test_spread_of_seed_only(self, graph):
        oracle = SpreadEstimator(graph, {}, "lt", num_simulations=10, seed=1)
        assert oracle.spread([0]) == 1.0

    def test_full_weight_chain(self):
        chain = SocialGraph.from_edges([(0, 1), (1, 2)])
        oracle = SpreadEstimator(
            chain, {(0, 1): 1.0, (1, 2): 1.0}, "lt", num_simulations=10,
            seed=1,
        )
        assert oracle.spread([0]) == 3.0


class TestCountingOracle:
    def test_counts_calls(self, graph):
        inner = SpreadEstimator(graph, {}, "ic", num_simulations=1, seed=1)
        counting = CountingOracle(inner)
        counting.spread([0])
        counting.spread([1])
        assert counting.calls == 2

    def test_delegates_value(self, graph):
        inner = SpreadEstimator(graph, {}, "ic", num_simulations=1, seed=1)
        counting = CountingOracle(inner)
        assert counting.spread([0]) == inner.spread([0])

    def test_delegates_candidates(self, graph):
        inner = SpreadEstimator(graph, {}, "ic", num_simulations=1, seed=1)
        assert CountingOracle(inner).candidates() == inner.candidates()


@pytest.fixture(scope="module")
def learned(flixster_mini):
    """flixster_mini's graph and log, its EM probabilities and LT
    weights, and its two highest out-degree users."""
    graph = flixster_mini.graph
    context = SelectionContext(graph, flixster_mini.log)
    top = sorted(graph.nodes(), key=lambda node: -graph.out_degree(node))
    values = {"ic": context.ic_probabilities("EM"), "lt": context.lt_weights()}
    return flixster_mini, values, top[0], top[1]


class TestOneSeedSetOneAnswer:
    """A seed *set* gets one Monte-Carlo answer, however it is listed.

    Regression: each listing used to seed its own stream, so ``[a]``,
    ``[a, a]`` and ``[a, "nobody"]`` got three different estimates.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_listing_does_not_matter(self, learned, model, backend):
        dataset, values, a, b = learned
        estimators = [
            SelectionContext(
                dataset.graph, dataset.log, backend=backend
            ).oracle(model, method="EM", seed=3),
            SpreadEstimator(
                dataset.graph, values[model], model, 100, seed=3,
                backend=backend,
            ),
        ]
        for estimator in estimators:
            alone = estimator.spread([a])
            assert estimator.spread([a, a]) == alone
            assert estimator.spread([a, "nobody"]) == alone
            assert estimator.spread([b, a]) == estimator.spread([a, b])


class TestOneEnginePerModelAndMethod:
    """The per-trial oracles of one (model, method) share one engine.

    Each trial's oracle differs only in its seed, and both engines take
    the seed per call, so a multi-trial Monte-Carlo selector compiles
    once and every trial keeps the seeds of its own fresh estimator.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trials_compile_once_and_keep_their_seeds(
        self, flixster_mini, backend, monkeypatch
    ):
        from repro.api import ExperimentConfig, run_experiment
        from repro.maximization.celf import celf_maximize
        from repro.runtime import estimator

        if backend == "numpy":
            from repro.kernels.mc_numpy import CompiledDiffusion as engine
        else:
            engine = estimator._Cascades
        compiles = []
        original = engine.__init__

        def spy(self, *args, **kwargs):
            compiles.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(engine, "__init__", spy)
        config = ExperimentConfig(
            dataset="flixster", scale="mini",
            selectors=[{"name": "celf", "params": {"model": "ic", "method": "WC"}}],
            ks=[2], trials=4, num_simulations=20, backend=backend,
            evaluate_spread=False, executor="serial",
        )
        result = run_experiment(config, dataset=flixster_mini)
        assert len(compiles) == 1

        context = SelectionContext(
            flixster_mini.graph, flixster_mini.log, seed=config.seed,
            backend=backend,
        )
        probabilities = context.ic_probabilities("WC")
        for trial, selection in enumerate(result.selections("celf")):
            fresh = SpreadEstimator(
                flixster_mini.graph, probabilities, "ic", 20,
                seed=context.derive_seed("celf", trial), backend=backend,
            )
            assert selection.seeds == celf_maximize(fresh, 2).seeds
