"""Tests for repro.api: the selector registry and the unified result model.

The load-bearing guarantee is *parity*: dispatching any algorithm
through the registry returns exactly the seeds a direct call to the
underlying public function returns, because adapters wrap — never
fork — the originals.
"""

import inspect
import sys
import threading

import pytest

from repro.api import (
    SeedSelection,
    SelectionContext,
    get_selector,
    list_selectors,
    register_selector,
    selector_names,
)
from repro.api.context import ARTIFACT_NAMES
from repro.core.maximize import cd_maximize
from repro.maximization.celf import celf_maximize
from repro.maximization.degree_discount import (
    degree_discount_ic_seeds,
    single_discount_seeds,
)
from repro.maximization.greedy import greedy_maximize
from repro.maximization.heuristics import high_degree_seeds, pagerank_seeds
from repro.maximization.irie import irie_seeds
from repro.maximization.ldag import LDAGModel
from repro.maximization.pmia import PMIAModel
from repro.maximization.ris import ris_maximize
from repro.maximization.simpath import simpath_maximize
from repro.runtime import SpreadEstimator


@pytest.fixture(scope="module")
def toy_context(toy):
    return SelectionContext(toy.graph, toy.log, num_simulations=20)


@pytest.fixture(scope="module")
def mini_context(flixster_mini):
    from repro.data.split import train_test_split

    train, _ = train_test_split(flixster_mini.log)
    return SelectionContext(flixster_mini.graph, train, num_simulations=10)


# Adapters whose parameter a registration must refuse.
def _untyped(ctx, k, *, depth=2):
    return []


def _list_typed(ctx, k, *, depth: list = ()):
    return []


def _bool_typed(ctx, k, *, depth: bool = False):
    return []


def _union_typed(ctx, k, *, depth: int | str = 2):
    return []


class TestRegistry:
    def test_at_least_twelve_selectors(self):
        assert len(list_selectors()) >= 12

    def test_names_sorted_and_unique(self):
        names = selector_names()
        assert names == sorted(names)
        assert len(set(names)) == len(names)

    def test_every_spec_is_well_formed(self):
        for spec in list_selectors():
            assert spec.family in ("cd", "mc", "sketch", "heuristic")
            assert spec.description
            assert set(spec.capabilities()) == {
                "needs_oracle", "needs_index", "needs_probabilities",
                "needs_weights", "needs_sketches", "supports_budget",
                "supports_time_log", "stochastic",
            }

    def test_family_filter(self):
        heuristics = list_selectors(family="heuristic")
        assert {spec.family for spec in heuristics} == {"heuristic"}
        assert "high_degree" in [spec.name for spec in heuristics]

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="unknown selector"):
            get_selector("quantum_annealer")

    def test_unknown_parameter_raises(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            get_selector("cd", warp_factor=9)

    def test_bad_family_filter_raises(self):
        with pytest.raises(ValueError, match="family"):
            list_selectors(family="quantum")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_selector("cd", family="cd")(lambda ctx, k: [])

    def test_every_builtin_param_passes_the_registration_check(self):
        # Every keyword-only adapter parameter but the instrumentation
        # channels is bindable and annotated int, float or str; exactly
        # those defaulting to None also admit None.
        channels = {"time_log", "checkpoints", "state", "state_out"}
        for spec in list_selectors():
            parameters = inspect.signature(spec.func).parameters
            keyword_only = [
                name for name, parameter in parameters.items()
                if parameter.kind == parameter.KEYWORD_ONLY
                and name not in channels
            ]
            assert spec.param_names() == keyword_only, spec.name
            for name in keyword_only:
                kind, nullable = spec.param_types[name]
                assert kind in (int, float, str), (spec.name, name)
                assert nullable == (parameters[name].default is None), (
                    spec.name, name,
                )

    @pytest.mark.parametrize(
        "adapter", [_untyped, _list_typed, _bool_typed, _union_typed]
    )
    def test_untyped_param_refused_at_registration(self, adapter):
        with pytest.raises(ValueError, match="'depth' must be annotated"):
            register_selector("typing_probe", family="heuristic")(adapter)
        assert "typing_probe" not in selector_names()

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("ris", {"num_rr_sets": True}, "num_rr_sets must be an integer"),
            ("ris", {"num_rr_sets": 2.0}, "num_rr_sets must be an integer"),
            ("ris", {"num_rr_sets": None}, "num_rr_sets must be an integer"),
            ("pagerank", {"damping": float("nan")},
             "damping must be a finite number"),
            ("pagerank", {"damping": 10**400}, "damping must be a finite number"),
            ("high_degree", {"direction": 1}, "direction must be a string"),
            ("cd_budget", {"budget": "3"},
             "budget must be a finite number or null"),
        ],
    )
    def test_mistyped_param_rejected_at_bind(self, name, params, message):
        (param, value), = params.items()
        with pytest.raises(ValueError) as error:
            get_selector(name, **params)
        assert str(error.value) == (
            f"selector {name!r} got {param} {value!r:.40}; {message}"
        )

    def test_typed_params_bind(self):
        assert get_selector("pagerank", damping=1).params == {"damping": 1}
        assert get_selector(
            "ris", method=None, seed=None, hops=None, num_rr_sets=10
        ).params["hops"] is None

    def test_negative_k_rejected(self, toy_context):
        with pytest.raises(ValueError, match="non-negative"):
            get_selector("high_degree").select(toy_context, -1)

    def test_with_params_merges(self):
        selector = get_selector("ris", num_rr_sets=100)
        rebound = selector.with_params(seed=5)
        assert rebound.params == {"num_rr_sets": 100, "seed": 5}
        assert selector.params == {"num_rr_sets": 100}

    def test_selection_is_stamped(self, toy_context):
        selection = get_selector("ris", num_rr_sets=50, seed=3)(toy_context, 2)
        assert selection.selector == "ris"
        assert selection.params == {"num_rr_sets": 50, "seed": 3}
        assert selection.wall_time_s > 0.0
        assert selection.metadata["num_rr_sets"] == 50


class TestParity:
    """Registry dispatch == direct call, on both test datasets."""

    @pytest.fixture(params=["toy", "mini"])
    def ctx(self, request, toy_context, mini_context):
        return toy_context if request.param == "toy" else mini_context

    @pytest.fixture
    def k(self, ctx, toy_context):
        return 2 if ctx is toy_context else 5

    def test_cd(self, ctx, k):
        direct = cd_maximize(ctx.credit_index(), k, mutate=False)
        via = get_selector("cd")(ctx, k)
        assert via.seeds == direct.seeds
        assert via.spread == pytest.approx(direct.spread)
        assert via.gains == pytest.approx(direct.gains)
        assert via.oracle_calls == direct.oracle_calls

    def test_greedy_over_sigma_cd(self, ctx, k):
        direct = greedy_maximize(ctx.cd_evaluator(), k)
        via = get_selector("greedy", model="cd")(ctx, k)
        assert via.seeds == direct.seeds

    def test_celf_over_sigma_cd(self, ctx, k):
        direct = celf_maximize(ctx.cd_evaluator(), k)
        via = get_selector("celf", model="cd")(ctx, k)
        assert via.seeds == direct.seeds

    def test_celf_over_ic_oracle(self, ctx, k):
        oracle = SpreadEstimator(
            ctx.graph,
            ctx.ic_probabilities("EM"),
            "ic",
            num_simulations=ctx.num_simulations,
            seed=5,
        )
        direct = celf_maximize(oracle, k)
        via = get_selector("celf", model="ic", seed=5)(ctx, k)
        assert via.seeds == direct.seeds

    def test_celf_over_lt_oracle(self, ctx, k):
        oracle = SpreadEstimator(
            ctx.graph,
            ctx.lt_weights(),
            "lt",
            num_simulations=ctx.num_simulations,
            seed=5,
        )
        direct = celf_maximize(oracle, k)
        via = get_selector("celf", model="lt", seed=5)(ctx, k)
        assert via.seeds == direct.seeds

    def test_ris(self, ctx, k):
        direct = ris_maximize(
            ctx.graph, ctx.ic_probabilities("EM"), k,
            num_rr_sets=300, seed=3,
        )
        via = get_selector("ris", num_rr_sets=300, seed=3)(ctx, k)
        assert via.seeds == direct.seeds
        assert via.spread == pytest.approx(direct.spread)

    def test_simpath(self, ctx, k):
        direct = simpath_maximize(ctx.graph, ctx.lt_weights(), k, eta=1e-3)
        via = get_selector("simpath", eta=1e-3)(ctx, k)
        assert via.seeds == direct.seeds

    def test_pmia(self, ctx, k):
        direct = PMIAModel(
            ctx.graph, ctx.ic_probabilities("EM")
        ).select_seeds(k)
        via = get_selector("pmia", method="EM")(ctx, k)
        assert via.seeds == direct.seeds

    def test_ldag(self, ctx, k):
        direct = LDAGModel(ctx.graph, ctx.lt_weights()).select_seeds(k)
        via = get_selector("ldag")(ctx, k)
        assert via.seeds == direct.seeds

    def test_irie(self, ctx, k):
        direct = irie_seeds(ctx.graph, ctx.ic_probabilities("EM"), k)
        via = get_selector("irie", method="EM")(ctx, k)
        assert via.seeds == direct

    def test_high_degree(self, ctx, k):
        assert get_selector("high_degree")(ctx, k).seeds == high_degree_seeds(
            ctx.graph, k
        )

    def test_pagerank(self, ctx, k):
        assert get_selector("pagerank")(ctx, k).seeds == pagerank_seeds(
            ctx.graph, k
        )

    def test_single_discount(self, ctx, k):
        assert get_selector("single_discount")(
            ctx, k
        ).seeds == single_discount_seeds(ctx.graph, k)

    def test_degree_discount(self, ctx, k):
        assert get_selector("degree_discount", probability=0.02)(
            ctx, k
        ).seeds == degree_discount_ic_seeds(ctx.graph, k, probability=0.02)


# The artifact slots each built-in reads from an EM context, unbound.
READS_ON_EM = {
    "cd": ["credit_index"],
    "cd_budget": ["credit_index"],
    "greedy": ["cd_evaluator"],
    "celf": ["cd_evaluator"],
    "ris": ["ic_probabilities/EM"],
    "hop": ["ic_probabilities/EM"],
    "simpath": ["lt_weights"],
    "pmia": ["ic_probabilities/EM"],
    "ldag": ["lt_weights"],
    "irie": ["ic_probabilities/EM"],
    "high_degree": [],
    "pagerank": [],
    "single_discount": [],
    "degree_discount": [],
}


class TestReads:
    @pytest.mark.parametrize(
        "name, params, expected",
        [
            pytest.param(spec.name, {}, READS_ON_EM.get(spec.name),
                         id=spec.name)
            for spec in list_selectors()
        ]
        + [
            pytest.param("celf", {"model": "cd"}, ["cd_evaluator"],
                         id="celf-model=cd"),
            pytest.param("celf", {"model": "ic"}, ["ic_probabilities/EM"],
                         id="celf-model=ic"),
            pytest.param("celf", {"model": "lt"}, ["lt_weights"],
                         id="celf-model=lt"),
            pytest.param("pmia", {"method": "UN"}, ["ic_probabilities/UN"],
                         id="pmia-method=UN"),
            pytest.param("ris", {"method": "WC"}, ["ic_probabilities/WC"],
                         id="ris-method=WC"),
        ],
    )
    def test_slots_read_from_an_em_context(self, toy, name, params, expected):
        assert expected is not None, f"selector {name!r} has no table row"
        reads = get_selector(name, **params).reads(SelectionContext(toy.graph))
        assert reads == expected
        assert set(reads) <= set(ARTIFACT_NAMES)


class TestSelectionContext:
    def test_structural_selectors_work_without_log(self, toy):
        ctx = SelectionContext(toy.graph)
        assert len(get_selector("high_degree")(ctx, 2).seeds) == 2

    def test_log_needing_selector_fails_clearly_without_log(self, toy):
        ctx = SelectionContext(toy.graph)
        with pytest.raises(ValueError, match="training action log"):
            get_selector("cd")(ctx, 2)

    def test_artifacts_cached(self, mini_context):
        assert mini_context.ic_probabilities(
            "EM"
        ) is mini_context.ic_probabilities("EM")
        assert mini_context.credit_index() is mini_context.credit_index()

    def test_derive_seed_deterministic_and_distinct(self, toy_context):
        assert toy_context.derive_seed("ris", 0) == toy_context.derive_seed(
            "ris", 0
        )
        assert toy_context.derive_seed("ris", 0) != toy_context.derive_seed(
            "ris", 1
        )

    def test_invalid_arguments_rejected(self, toy):
        with pytest.raises(ValueError):
            SelectionContext(toy.graph, toy.log, probability_method="XX")
        with pytest.raises(ValueError):
            SelectionContext(toy.graph, toy.log, num_simulations=0)
        with pytest.raises(ValueError, match="truncation"):
            SelectionContext(toy.graph, toy.log, truncation=float("nan"))
        with pytest.raises(ValueError):
            SelectionContext(toy.graph, toy.log, credit_scheme="quadratic")

    def test_unknown_oracle_model_rejected(self, toy_context):
        with pytest.raises(ValueError, match="model"):
            toy_context.oracle("percolation")


class _CountingLoader:
    """A stored-slot loader that counts its calls."""

    def __init__(self, value=None) -> None:
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.value is not None:
            return self.value
        # A fresh, equal object per call, and enough work that racing
        # readers interleave inside it.
        return {user: user * 2 for user in range(20_000)}


class TestStoredSlots:
    @pytest.mark.parametrize("name", ARTIFACT_NAMES)
    def test_decoded_once_on_first_read(self, toy, name):
        # A log-less context: any accessor that learned would raise, so
        # the stored value is what every read returns.
        ctx = SelectionContext(toy.graph)
        value = object()
        loader = _CountingLoader(value)
        ctx.set_artifact_loader(name, loader)
        assert name in ctx.artifact_names()
        assert loader.calls == 0
        assert ctx.build_artifact(name) is value  # the lazy accessor
        assert ctx.get_artifact(name) is value
        assert loader.calls == 1
        assert name in ctx.artifact_names()

    def test_get_artifact_decodes_for_the_accessor(self, toy):
        ctx = SelectionContext(toy.graph)
        value = object()
        loader = _CountingLoader(value)
        ctx.set_artifact_loader("credit_index", loader)
        assert ctx.get_artifact("credit_index") is value
        assert ctx.credit_index() is value
        assert loader.calls == 1

    def test_set_artifact_replaces_a_pending_loader(self, toy):
        ctx = SelectionContext(toy.graph)
        loader = _CountingLoader(object())
        ctx.set_artifact_loader("lt_weights", loader)
        value = {(0, 1): 0.5}
        ctx.set_artifact("lt_weights", value)
        assert ctx.lt_weights() is value
        assert ctx.get_artifact("lt_weights") is value
        assert loader.calls == 0

    def test_racing_readers_never_see_an_empty_slot(self, toy):
        ctx = SelectionContext(toy.graph)
        loader = _CountingLoader()
        ctx.set_artifact_loader("credit_index", loader)
        workers = 8
        barrier = threading.Barrier(workers)
        answers: list = [None] * workers

        def read(slot: int) -> None:
            barrier.wait()
            if slot % 2:
                answers[slot] = ctx.get_artifact("credit_index")
            else:
                answers[slot] = ctx.credit_index()

        threads = [
            threading.Thread(target=read, args=(slot,))
            for slot in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = _CountingLoader()()
        assert all(answer == expected for answer in answers)
        assert 1 <= loader.calls <= workers


class TestSeedSelection:
    def test_json_round_trip(self, toy_context):
        selection = get_selector("cd")(toy_context, 2)
        restored = SeedSelection.from_json(selection.to_json())
        assert restored == selection

    def test_round_trip_preserves_none_spread(self, toy_context):
        selection = get_selector("high_degree")(toy_context, 2)
        assert selection.spread is None
        restored = SeedSelection.from_json(selection.to_json(indent=2))
        assert restored.spread is None
        assert restored.seeds == selection.seeds

    def test_seeds_at_prefix(self, toy_context):
        selection = get_selector("cd")(toy_context, 2)
        assert selection.seeds_at(1) == selection.seeds[:1]
        with pytest.raises(ValueError):
            selection.seeds_at(-1)

    def test_time_log_metadata(self, toy_context):
        selection = get_selector("cd")(toy_context, 2)
        log = selection.metadata["time_log"]
        assert [count for count, _ in log] == [1, 2]
        assert all(elapsed >= 0.0 for _, elapsed in log)
        # Cumulative: later seeds cannot have earlier timestamps.
        elapsed = [seconds for _, seconds in log]
        assert elapsed == sorted(elapsed)
