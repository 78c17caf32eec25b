"""Cross-backend parity: the NumPy kernels vs the reference semantics.

The pure-Python implementations are the documented reference; the
``repro.kernels`` backends must reproduce them:

* **EM** — bit-for-bit: identical edges and values, in identical dict
  order (which downstream RNG consumers like PT rely on), identical
  iteration counts and convergence flags;
* **scan** — identical credit-entry sets post-truncation, values
  within 1e-9 (summation-order float dust only), identical activity
  counters;
* **sigma_cd evaluator** — byte-identical stored payloads: the same
  compiled traces and activity counters, built from the same user
  objects (which the pickle memo sees);
* **Monte-Carlo spread** — bit for bit: simulation ``i`` is
  counter-keyed world ``i`` on both backends, on int, tuple and
  distinct-but-equal str ids;
* **run_experiment** — identical final seeds and gains for the CD,
  EM+IC and LT pipelines under both backends.

Everything here is skipped when NumPy is unavailable; the fallback
tests at the bottom cover that machine profile instead (they simulate
a missing NumPy by monkeypatching the probe).
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

import repro.kernels as kernels
from repro.api import ExperimentConfig, SelectionContext, run_experiment
from repro.core.credit import TimeDecayCredit
from repro.core.params import learn_influenceability
from repro.core.scan import scan_action_log
from repro.core.spread import CDSpreadEvaluator
from repro.data.actionlog import ActionLog
from repro.data.datasets import flickr_like, flixster_like
from repro.data.propagation import PropagationGraph
from repro.diffusion.ic import estimate_spread_ic
from repro.diffusion.lt import estimate_spread_lt
from repro.graphs.digraph import SocialGraph
from repro.kernels.cd_numpy import cd_evaluator_numpy
from repro.kernels.em_numpy import learn_ic_probabilities_em_numpy
from repro.kernels.scan_numpy import (
    UnsupportedCreditScheme,
    scan_action_log_numpy,
)
from repro.probabilities.em import learn_ic_probabilities_em
from repro.runtime import SpreadEstimator
from repro.store.serialize import dump_payload
from repro.stream import ActionLogDelta, fold_delta

VALUE_TOLERANCE = 1e-9
MC_SIMULATIONS = 300


@pytest.fixture(scope="module", params=["flixster", "flixster101", "flickr"])
def dataset(request):
    """Three seeded synthetic datasets (two generator families)."""
    return {
        "flixster": lambda: flixster_like("mini"),
        "flixster101": lambda: flixster_like("mini", seed=101),
        "flickr": lambda: flickr_like("mini"),
    }[request.param]()


def _entries(index):
    return {
        (influencer, action, influenced): value
        for influencer, action, influenced, value in index.entries()
    }


def _assert_index_parity(python_index, numpy_index):
    python_entries = _entries(python_index)
    numpy_entries = _entries(numpy_index)
    assert set(python_entries) == set(numpy_entries)
    assert python_index.total_entries == numpy_index.total_entries
    assert python_index.activity == numpy_index.activity
    for key, value in python_entries.items():
        assert numpy_entries[key] == pytest.approx(value, abs=VALUE_TOLERANCE)
    # The inc order must index the handed-over columns consistently.
    for influenced in numpy_index.users():
        for influencer, action, value in numpy_index.sources(influenced):
            assert numpy_entries[(influencer, action, influenced)] == value


class TestEMParity:
    def test_same_probabilities(self, dataset):
        python = learn_ic_probabilities_em(dataset.graph, dataset.log)
        vectorized = learn_ic_probabilities_em_numpy(dataset.graph, dataset.log)
        assert list(python.probabilities.items()) == list(
            vectorized.probabilities.items()
        )
        assert python.iterations == vectorized.iterations
        assert python.converged == vectorized.converged


class TestScanParity:
    def test_uniform_credit(self, dataset):
        python_index = scan_action_log(dataset.graph, dataset.log)
        numpy_index = scan_action_log_numpy(dataset.graph, dataset.log)
        _assert_index_parity(python_index, numpy_index)

    def test_timedecay_credit(self, dataset):
        params = learn_influenceability(dataset.graph, dataset.log)
        credit = TimeDecayCredit(params)
        python_index = scan_action_log(dataset.graph, dataset.log, credit=credit)
        numpy_index = scan_action_log_numpy(
            dataset.graph, dataset.log, credit=credit
        )
        _assert_index_parity(python_index, numpy_index)

    def test_incremental_extension_matches(self, dataset):
        """Folding the second half into a half-scanned index, per backend."""
        actions = list(dataset.log.actions())
        head, tail = actions[: len(actions) // 2], actions[len(actions) // 2:]
        python_index = scan_action_log(dataset.graph, dataset.log, actions=head)
        scan_action_log(
            dataset.graph, dataset.log, actions=tail, index=python_index
        )
        numpy_index = scan_action_log_numpy(
            dataset.graph, dataset.log, actions=head
        )
        scan_action_log_numpy(
            dataset.graph, dataset.log, actions=tail, index=numpy_index
        )
        _assert_index_parity(python_index, numpy_index)

    def test_tuple_node_ids(self):
        # Uniform-length tuple ids must stay one object per slot (a
        # naive np.asarray(..., dtype=object) would build a 2-D array).
        from repro.data.actionlog import ActionLog
        from repro.graphs.digraph import SocialGraph

        graph = SocialGraph.from_edges(
            [((0, 1), (0, 2)), ((0, 2), (0, 3)), ((0, 1), (0, 3))]
        )
        log = ActionLog.from_tuples(
            [((0, 1), "a", 0.0), ((0, 2), "a", 1.0), ((0, 3), "a", 2.0)]
        )
        python_index = scan_action_log(graph, log)
        numpy_index = scan_action_log_numpy(graph, log)
        _assert_index_parity(python_index, numpy_index)

    def test_unsupported_scheme_raises(self, dataset):
        class ExoticCredit:
            def __call__(self, propagation, influencer, influenced):
                return 0.5

        with pytest.raises(UnsupportedCreditScheme):
            scan_action_log_numpy(
                dataset.graph, dataset.log, credit=ExoticCredit()
            )


def _rough_instance(seed: int) -> tuple[SocialGraph, ActionLog]:
    """A random (graph, log) with the shapes the evaluator must get right.

    Users 9 and 10 act but are missing from the graph, zero-length time
    steps give equal timestamps, and every fourth action has a single
    adopter.
    """
    rng = random.Random(seed)
    graph = SocialGraph()
    for node in range(9):
        graph.add_node(node)
    for source in range(9):
        for target in range(9):
            if source != target and rng.random() < 0.35:
                graph.add_edge(source, target)
    log = ActionLog()
    for action in range(8):
        size = 1 if action % 4 == 0 else rng.randint(2, 11)
        time = 0.0
        for user in rng.sample(range(11), k=size):
            time += rng.choice((0.0, 0.5, 1.25))
            log.add(user, f"a{action}", time)
    return graph, log


def _fresh(value) -> str:
    """A new str object per call: equal ids, distinct objects."""
    return "".join(("u", str(value)))


def _str_instance(seed: int) -> tuple[SocialGraph, ActionLog]:
    """The rough instance over str ids, one fresh object per occurrence."""
    graph, log = _rough_instance(seed)
    str_graph = SocialGraph()
    for node in graph.nodes():
        str_graph.add_node(_fresh(node))
    for source, target in graph.edges():
        str_graph.add_edge(_fresh(source), _fresh(target))
    str_log = ActionLog.from_tuples(
        (_fresh(user), action, time) for user, action, time in log.tuples()
    )
    return str_graph, str_log


def _evaluator_credit(scheme: str, graph, log):
    """``None`` (uniform) or time-decay credits with some ``infl = 0``."""
    if scheme == "uniform":
        return None
    params = learn_influenceability(graph, log)
    for user in list(params.infl)[::3]:
        params.infl[user] = 0.0
    return TimeDecayCredit(params)


EVALUATOR_COLUMNS = (
    "counts", "offsets", "position_user", "link_start", "link_parent",
    "link_gamma",
)


def _assert_evaluator_parity(graph, log, scheme: str) -> None:
    credit = _evaluator_credit(scheme, graph, log)
    reference = CDSpreadEvaluator(graph, log, credit=credit)
    kernel = cd_evaluator_numpy(graph, log, credit=credit)
    # The same user objects (those log.trace holds), in first-seen order.
    assert len(kernel.users) == len(reference.users)
    assert all(
        mine is theirs for mine, theirs in zip(kernel.users, reference.users)
    )
    for name in EVALUATOR_COLUMNS:
        column, expected = getattr(kernel, name), getattr(reference, name)
        assert column.typecode == expected.typecode, name
        assert column.tobytes() == expected.tobytes(), name
    assert dump_payload(kernel) == dump_payload(reference)


class TestCDEvaluatorParity:
    """The evaluator kernel builds the reference evaluator byte for byte."""

    @pytest.mark.parametrize("scheme", ["uniform", "timedecay"])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed, scheme):
        _assert_evaluator_parity(*_rough_instance(seed), scheme)

    @pytest.mark.parametrize("scheme", ["uniform", "timedecay"])
    @pytest.mark.parametrize("seed", range(5))
    def test_distinct_equal_str_ids(self, seed, scheme):
        assert _fresh(1) is not _fresh(1)
        _assert_evaluator_parity(*_str_instance(seed), scheme)

    @pytest.mark.parametrize("scheme", ["uniform", "timedecay"])
    def test_flixster_mini(self, flixster_mini, scheme):
        _assert_evaluator_parity(flixster_mini.graph, flixster_mini.log, scheme)

    def test_context_builds_no_propagation_graphs(
        self, flixster_mini, monkeypatch
    ):
        expected = SelectionContext(
            flixster_mini.graph, flixster_mini.log, backend="python"
        ).cd_evaluator()

        def refuse(*args, **kwargs):
            raise AssertionError("PropagationGraph.build was called")

        monkeypatch.setattr(PropagationGraph, "build", refuse)
        context = SelectionContext(
            flixster_mini.graph, flixster_mini.log, backend="numpy"
        )
        assert dump_payload(context.cd_evaluator()) == dump_payload(expected)

    def test_uniform_fold_verifies_over_str_ids(self):
        """``verify=True`` compares ``extend()``'s bytes with the kernel's."""
        graph, log = _str_instance(3)
        actions = list(log.actions())
        base = log.restrict_to_actions(actions[:-3])
        delta = ActionLogDelta.from_log(log.restrict_to_actions(actions[-3:]))
        context = SelectionContext(
            graph, base, credit_scheme="uniform", backend="numpy"
        )
        context.cd_evaluator()
        fold = fold_delta(context, delta, verify=True)
        assert fold.report.updated == ["cd_evaluator"]
        assert fold.report.verified


def _relabel(graph, values, label):
    """``graph`` and its edge values over ``label(node)`` ids."""
    relabelled = SocialGraph()
    for node in graph.nodes():
        relabelled.add_node(label(node))
    for source, target in graph.edges():
        relabelled.add_edge(label(source), label(target))
    return relabelled, {
        (label(source), label(target)): value
        for (source, target), value in values.items()
    }


# Int ids as generated, tuple ids, and str ids with one fresh object per
# occurrence (graph, edge values and seeds never share an object).
ID_SPACES = {
    "int": lambda node: node,
    "tuple": lambda node: (node % 7, str(node)),
    "str": _fresh,
}


class TestMonteCarloParity:
    """Both backends walk the same counter-keyed worlds: equal bit for bit."""

    @pytest.fixture(scope="class")
    def artifacts(self):
        data = flixster_like("mini")
        context = SelectionContext(data.graph, data.log)
        seeds = sorted(
            data.graph.nodes(), key=lambda n: -data.graph.out_degree(n)
        )[:5]
        return data.graph, context, seeds

    @staticmethod
    def _values(context, model):
        return (
            context.ic_probabilities("EM") if model == "ic"
            else context.lt_weights()
        )

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_bit_identical(self, artifacts, model):
        graph, context, seeds = artifacts
        values = self._values(context, model)
        estimate = estimate_spread_ic if model == "ic" else estimate_spread_lt
        for seed_set in (seeds, seeds[:1], seeds[2:], [seeds[0], "nobody"]):
            python = estimate(
                graph, values, seed_set, MC_SIMULATIONS, seed=11,
                backend="python",
            )
            assert python == estimate(
                graph, values, seed_set, MC_SIMULATIONS, seed=11,
                backend="numpy",
            )

    @pytest.mark.parametrize("ids", sorted(ID_SPACES))
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_id_spaces(self, artifacts, model, ids):
        graph, context, seeds = artifacts
        label = ID_SPACES[ids]
        graph, values = _relabel(graph, self._values(context, model), label)
        estimators = [
            SpreadEstimator(
                graph, values, model, MC_SIMULATIONS, seed=4, backend=backend
            )
            for backend in ("python", "numpy")
        ]
        seed_sets = [[label(node) for node in seeds[:size]] for size in (1, 3, 5)]
        python, vectorized = (
            estimator.spread_many(seed_sets) for estimator in estimators
        )
        assert python == vectorized

    def test_numpy_protocol_is_deterministic(self, artifacts):
        graph, context, seeds = artifacts
        probabilities = context.ic_probabilities("EM")
        first = estimate_spread_ic(
            graph, probabilities, seeds, 500, seed=3, backend="numpy"
        )
        second = estimate_spread_ic(
            graph, probabilities, seeds, 500, seed=3, backend="numpy"
        )
        assert first == second


def _selections(config: ExperimentConfig) -> dict[str, tuple]:
    result = run_experiment(config)
    return {
        run.label: (run.selection.seeds, run.selection.gains)
        for run in result.runs
    }


class TestRunExperimentParity:
    """Identical final seeds and gains through the full pipeline, per backend.

    Both backends score seed sets on the same counter-keyed worlds, so
    the Monte-Carlo pipelines see equal floats and match exactly on
    the default datasets, ties included.
    """

    def _compare(self, selectors, **overrides):
        selections = {}
        for backend in ("python", "numpy"):
            config = ExperimentConfig(
                selectors=selectors,
                backend=backend,
                evaluate_spread=False,
                **overrides,
            )
            selections[backend] = _selections(config)
        assert selections["python"] == selections["numpy"]

    def test_cd_pipeline(self):
        # Deterministic — must match on every dataset.
        for dataset, dataset_seed in (
            ("flixster", None),
            ("flixster", 101),
            ("flickr", None),
        ):
            self._compare(
                ["cd"],
                dataset=dataset,
                scale="mini",
                dataset_seed=dataset_seed,
                ks=[5],
            )

    def test_em_ic_pipeline(self):
        selector = [{"name": "celf", "params": {"model": "ic"}, "label": "IC"}]
        for dataset in ("flixster", "flickr"):
            self._compare(
                selector, dataset=dataset, scale="mini", ks=[4],
                num_simulations=100,
            )

    def test_lt_pipeline(self):
        selector = [{"name": "celf", "params": {"model": "lt"}, "label": "LT"}]
        for dataset in ("flixster", "flickr"):
            self._compare(
                selector, dataset=dataset, scale="mini", ks=[4],
                num_simulations=100,
            )


class TestBackendResolution:
    def test_explicit_requests(self):
        assert kernels.resolve_backend("python") == "python"
        assert kernels.resolve_backend("numpy") == "numpy"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numpy")
        assert kernels.resolve_backend(None) == "numpy"
        assert kernels.resolve_backend("auto") == "numpy"
        # An explicit request still wins over the environment.
        assert kernels.resolve_backend("python") == "python"

    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(kernels.BACKEND_ENV_VAR, raising=False)
        assert kernels.resolve_backend(None) == "python"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.resolve_backend("fortran")
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="toy", selectors=["cd"], backend="gpu")

    def test_graceful_fallback_without_numpy(self, monkeypatch, toy):
        monkeypatch.setattr(kernels, "_NUMPY_OK", False)
        monkeypatch.setattr(kernels, "_WARNED_FALLBACK", False)
        assert kernels.available_backends() == ("python",)
        with pytest.warns(RuntimeWarning):
            assert kernels.resolve_backend("numpy") == "python"
        context = SelectionContext(toy.graph, toy.log, backend="numpy")
        assert context.backend == "python"
        selection_config = ExperimentConfig(
            dataset="toy", selectors=["cd"], ks=[2], backend="numpy"
        )
        result = run_experiment(selection_config)
        assert result.runs[0].selection.seeds == ["v", "s"]

    def test_context_resolves_env(self, monkeypatch, toy):
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numpy")
        context = SelectionContext(toy.graph, toy.log)
        assert context.backend == "numpy"

    def test_config_roundtrips_backend(self):
        config = ExperimentConfig(
            dataset="toy", selectors=["cd"], backend="numpy"
        )
        assert ExperimentConfig.from_dict(config.to_dict()).backend == "numpy"
