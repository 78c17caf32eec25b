"""The sketch/hop subsystem: cross-backend parity and integration.

Four contracts, mirroring the kernel-parity suite's structure:

* **generation** — the batched NumPy sketcher is *byte-identical* to
  the pure-Python reference (same targets, same CSR, same members, for
  every hop limit and batch size), because edge liveness is a pure
  function of ``(seed, sketch index, edge id)``;
* **selection** — ``ris``/``hop`` return identical seeds, gains and
  spreads under both backends and on every executor, with the library's
  standard per-trial seed derivation;
* **persistence** — no batch is stored: the learn spec that keys a
  bundle holds no sketch parameter, a warm ``hop`` run equals the cold
  one, and a context keeps only the last batch it built;
* **accuracy** — the RIS estimate tracks Monte Carlo closely and the
  1-hop/2-hop estimators are the expected lower bounds (exact on
  depth-limited trees).

The NumPy-vs-Python classes skip without NumPy; the fallback test
simulates a NumPy-less machine by monkeypatching the probe, as in
``test_kernels_parity``.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.kernels as kernels
from repro.api import ExperimentConfig, SelectionContext, get_selector, run_experiment
from repro.api.context import ARTIFACT_NAMES
from repro.core.maximize import cd_maximize, marginal_gain
from repro.core.sketch import (
    coverage_maximize,
    generate_sketches,
    hop_spread,
    sketch_generation_seed,
)
from repro.data.split import train_test_split
from repro.diffusion.ic import estimate_spread_ic
from repro.graphs.digraph import SocialGraph
from repro.maximization.ris import ris_maximize

requires_numpy = pytest.mark.skipif(
    "numpy" not in kernels.available_backends(), reason="NumPy unavailable"
)


@pytest.fixture(scope="module")
def mini(flixster_mini):
    """(graph, WC probabilities) — static assignment, no learning."""
    context = SelectionContext(flixster_mini.graph)
    return flixster_mini.graph, context.ic_probabilities("WC")


@pytest.fixture(scope="module")
def mini_context(flixster_mini):
    train, _ = train_test_split(flixster_mini.log)
    return SelectionContext(flixster_mini.graph, train, num_simulations=10)


# ----------------------------------------------------------------------
# Generation parity: NumPy kernel vs pure-Python reference
# ----------------------------------------------------------------------
@requires_numpy
class TestGenerationParity:
    @pytest.mark.parametrize("hops", [None, 1, 2, 3])
    def test_sketches_byte_identical(self, mini, hops):
        from repro.kernels.sketch_numpy import CompiledSketcher

        graph, probabilities = mini
        seed = sketch_generation_seed(7, 400, hops)
        reference = generate_sketches(
            graph, probabilities, 400, hops=hops, seed=seed
        )
        compiled = CompiledSketcher.from_graph(graph, probabilities)
        for batch_size in (64, 4096):
            kernel = compiled.generate(
                400, hops=hops, seed=seed, batch_size=batch_size
            )
            assert list(kernel.targets) == list(reference.targets)
            assert list(kernel.indptr) == list(reference.indptr)
            assert list(kernel.members) == list(reference.members)
            assert kernel.nodes == reference.nodes
            assert kernel.seed == reference.seed

    def test_coverage_maximize_identical(self, mini):
        from repro.kernels.sketch_numpy import coverage_maximize_numpy

        graph, probabilities = mini
        sketches = generate_sketches(graph, probabilities, 600, seed=11)
        assert coverage_maximize_numpy(sketches, 10) == coverage_maximize(
            sketches, 10
        )
        # Past-exhaustion k: both stop at the same point.
        assert coverage_maximize_numpy(sketches, 10_000) == coverage_maximize(
            sketches, 10_000
        )

    def test_ris_maximize_backend_identical(self, mini):
        graph, probabilities = mini
        python = ris_maximize(
            graph, probabilities, 5, num_rr_sets=500, seed=11,
            backend="python",
        )
        numpy_ = ris_maximize(
            graph, probabilities, 5, num_rr_sets=500, seed=11,
            backend="numpy",
        )
        assert numpy_.seeds == python.seeds
        assert numpy_.gains == python.gains  # same scale multiply: exact
        assert numpy_.spread == python.spread

    def test_empty_and_seedless_cases(self, mini):
        from repro.kernels.sketch_numpy import CompiledSketcher

        graph, probabilities = mini
        empty = SocialGraph.from_edges([])
        assert generate_sketches(empty, {}, 5, seed=1).num_sketches == 0
        assert CompiledSketcher.from_graph(empty, {}).generate(
            5, seed=1
        ).num_sketches == 0
        assert hop_spread(graph, probabilities, [], hops=2) == 0.0


# ----------------------------------------------------------------------
# Selector determinism: seed schedule, executors, backends
# ----------------------------------------------------------------------
class TestSelectorDeterminism:
    def test_adapter_matches_direct_call(self, mini_context):
        """Registry dispatch == ris_maximize with the same base seed."""
        direct = ris_maximize(
            mini_context.graph,
            mini_context.ic_probabilities("EM"),
            3,
            num_rr_sets=300,
            seed=9,
        )
        via = get_selector("ris", num_rr_sets=300, seed=9)(mini_context, 3)
        assert via.seeds == direct.seeds
        assert via.spread == direct.spread
        hop_direct = ris_maximize(
            mini_context.graph,
            mini_context.ic_probabilities("EM"),
            3,
            num_rr_sets=300,
            seed=9,
            hops=2,
        )
        hop_via = get_selector("hop", num_sketches=300, seed=9)(
            mini_context, 3
        )
        assert hop_via.seeds == hop_direct.seeds
        assert hop_via.spread == hop_direct.spread

    @requires_numpy
    def test_selector_backend_parity(self, flixster_mini):
        train, _ = train_test_split(flixster_mini.log)
        contexts = [
            SelectionContext(flixster_mini.graph, train, backend=backend)
            for backend in ("python", "numpy")
        ]
        for name, params in (
            ("ris", {"num_rr_sets": 300}),
            ("hop", {"num_sketches": 300, "hops": 2}),
        ):
            python, numpy_ = (
                get_selector(name, seed=5, **params)(context, 3)
                for context in contexts
            )
            assert numpy_.seeds == python.seeds
            assert numpy_.gains == python.gains
            assert numpy_.spread == python.spread

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_identical_across_executors(self, executor):
        def outcome(executor_name):
            config = ExperimentConfig(
                dataset="toy",
                selectors=[
                    {"name": "ris", "params": {"num_rr_sets": 200}},
                    {"name": "hop", "params": {"num_sketches": 200}},
                ],
                ks=[2],
                trials=2,
                executor=executor_name,
                evaluate_spread=False,
            )
            return [
                (run.label, run.trial, run.selection.params["seed"],
                 run.selection.seeds, run.selection.spread)
                for run in run_experiment(config).runs
            ]

        assert outcome(executor) == outcome("serial")

    def test_trial_seeds_fan_out(self):
        config = ExperimentConfig(
            dataset="toy",
            selectors=[{"name": "hop", "params": {"num_sketches": 100}}],
            ks=[2],
            trials=2,
            evaluate_spread=False,
        )
        result = run_experiment(config)
        seeds_used = [run.selection.params["seed"] for run in result.runs]
        assert len(set(seeds_used)) == 2


# ----------------------------------------------------------------------
# The context's batch and the store
# ----------------------------------------------------------------------
class TestContextBatch:
    def test_keeps_only_the_last_batch(self, toy):
        # A serving context answers ris/hop requests for any seed; it
        # must not pin one batch per seed it was asked for.
        context = SelectionContext(toy.graph, toy.log)
        first = context.sketches(num_sketches=50, seed=1)
        first_ref = weakref.ref(first)
        del first
        context.sketches(num_sketches=50, seed=2)
        third = context.sketches(num_sketches=50, seed=3)
        gc.collect()
        assert first_ref() is None
        assert context.sketches(num_sketches=50, seed=3) is third


class TestStoreRoundTrip:
    def test_learn_spec_keys_sketch_parameters(self, toy):
        # No sketch parameter keys a store bundle: no batch is stored.
        context = SelectionContext(toy.graph, toy.log)
        assert sorted(context.learn_spec()) == [
            "backend", "credit_scheme", "seed", "truncation",
        ]
        assert "sketches" not in ARTIFACT_NAMES
        with pytest.raises(TypeError):
            SelectionContext(toy.graph, toy.log, num_sketches=5)

    def test_experiment_store_round_trip(self, tmp_path):
        config = ExperimentConfig(
            dataset="toy",
            selectors=[{"name": "hop", "params": {"num_sketches": 150}}],
            ks=[2],
            store=str(tmp_path / "store"),
            evaluate_spread=False,
        )
        cold = run_experiment(config)
        warm = run_experiment(config)
        assert (
            warm.selections("hop")[0].seeds == cold.selections("hop")[0].seeds
        )
        assert (
            warm.selections("hop")[0].spread
            == cold.selections("hop")[0].spread
        )


# ----------------------------------------------------------------------
# Accuracy: sketch/hop estimates vs Monte Carlo
# ----------------------------------------------------------------------
class TestAccuracy:
    def test_ris_estimate_tracks_monte_carlo(self, mini):
        graph, probabilities = mini
        result = ris_maximize(
            graph, probabilities, 5, num_rr_sets=4000, seed=3
        )
        mc = estimate_spread_ic(
            graph, probabilities, result.seeds, num_simulations=2000, seed=7
        )
        assert result.spread == pytest.approx(mc, rel=0.1)

    def test_hop_estimates_are_ordered_lower_bounds(self, mini):
        graph, probabilities = mini
        result = ris_maximize(
            graph, probabilities, 5, num_rr_sets=4000, seed=3
        )
        mc = estimate_spread_ic(
            graph, probabilities, result.seeds, num_simulations=2000, seed=7
        )
        one_hop = hop_spread(graph, probabilities, result.seeds, hops=1)
        two_hop = hop_spread(graph, probabilities, result.seeds, hops=2)
        assert len(result.seeds) <= one_hop <= two_hop
        # Truncated estimators undershoot the full cascade (MC noise
        # aside) but must capture the bulk of it on a shallow graph.
        assert two_hop <= mc * 1.05
        assert two_hop >= mc * 0.5

    def test_two_hop_exact_on_depth_two_tree(self):
        graph = SocialGraph.from_edges(
            [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("b", "e")]
        )
        p = {
            ("r", "a"): 0.5, ("r", "b"): 0.25,
            ("a", "c"): 0.5, ("a", "d"): 0.125, ("b", "e"): 1.0,
        }
        exact = (
            1.0
            + p["r", "a"] + p["r", "b"]
            + p["r", "a"] * p["a", "c"]
            + p["r", "a"] * p["a", "d"]
            + p["r", "b"] * p["b", "e"]
        )
        assert hop_spread(graph, p, ["r"], hops=2) == pytest.approx(exact)
        mc = estimate_spread_ic(graph, p, ["r"], num_simulations=4000, seed=1)
        assert hop_spread(graph, p, ["r"], hops=2) == pytest.approx(
            mc, rel=0.05
        )


# ----------------------------------------------------------------------
# The felled pure-Python hot paths: params + CD initial sweep
# ----------------------------------------------------------------------
@requires_numpy
class TestHotPathKernels:
    def test_influenceability_bit_identical(self, flixster_mini):
        from repro.core.params import learn_influenceability
        from repro.kernels.params_numpy import learn_influenceability_numpy

        train, _ = train_test_split(flixster_mini.log)
        reference = learn_influenceability(flixster_mini.graph, train)
        kernel = learn_influenceability_numpy(flixster_mini.graph, train)
        assert list(kernel.tau) == list(reference.tau)  # dict order too
        assert kernel.tau == reference.tau
        assert list(kernel.infl) == list(reference.infl)
        assert kernel.infl == reference.infl
        assert kernel.average_tau == reference.average_tau

    def test_cd_initial_gains_bit_identical(self, mini_context):
        from repro.core.index import SeedCredits
        from repro.kernels.cd_numpy import cd_initial_gains

        index = mini_context.credit_index()
        credits = SeedCredits()
        got = cd_initial_gains(index)
        assert [user for user, _ in got] == list(index.users())
        for user, gain in got:
            assert gain == marginal_gain(index, credits, user)

    def test_cd_maximize_backend_bit_identical(self, mini_context):
        index = mini_context.credit_index()
        python = cd_maximize(index, 5, mutate=False, backend="python")
        numpy_ = cd_maximize(index, 5, mutate=False, backend="numpy")
        assert numpy_.seeds == python.seeds
        assert numpy_.gains == python.gains
        assert numpy_.spread == python.spread
        assert numpy_.oracle_calls == python.oracle_calls

    def test_context_influence_params_backend_parity(self, flixster_mini):
        train, _ = train_test_split(flixster_mini.log)
        python = SelectionContext(
            flixster_mini.graph, train, backend="python"
        ).influence_params()
        numpy_ = SelectionContext(
            flixster_mini.graph, train, backend="numpy"
        ).influence_params()
        assert numpy_.tau == python.tau
        assert numpy_.infl == python.infl
        assert numpy_.average_tau == python.average_tau


# ----------------------------------------------------------------------
# Fallback: no NumPy on the machine
# ----------------------------------------------------------------------
class TestNoNumpyFallback:
    def test_sketch_selectors_run_pure_python(self, monkeypatch, toy):
        monkeypatch.setattr(kernels, "_NUMPY_OK", False)
        monkeypatch.setattr(kernels, "_WARNED_FALLBACK", False)
        with pytest.warns(RuntimeWarning):
            context = SelectionContext(toy.graph, toy.log, backend="numpy")
        assert context.backend == "python"
        for name, params in (
            ("ris", {"num_rr_sets": 100}),
            ("hop", {"num_sketches": 100}),
        ):
            selection = get_selector(name, seed=3, **params)(context, 2)
            assert len(selection.seeds) == 2
