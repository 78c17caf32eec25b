"""Tests for repro.core.spread (exact sigma_cd evaluation)."""

import pickle
import random
import sys
import threading
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.api import SelectionContext
from repro.core.credit import TimeDecayCredit
from repro.core.params import learn_influenceability
from repro.core.spread import CDSpreadEvaluator, sigma_cd
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.store.serialize import dump_payload, load_payload

from tests.helpers import naive_sigma_cd, random_instance, reference_kappa

KERNELS = ["python"] + (
    ["numpy"] if "numpy" in kernels.available_backends() else []
)


def _build(kernel, graph, log, credit=None):
    """The evaluator of ``kernel``'s build (the numpy one answers with
    the numpy kernel)."""
    if kernel == "numpy":
        from repro.kernels.cd_numpy import cd_evaluator_numpy

        return cd_evaluator_numpy(graph, log, credit=credit)
    return CDSpreadEvaluator(graph, log, credit=credit)


class TestPaperExample:
    def test_single_seed_v(self, toy):
        # kappa: v=1, w=1, t=0.5, z=0.5, u=0.75 (s unreachable) = 3.75.
        assert sigma_cd(toy.graph, toy.log, ["v"]) == pytest.approx(3.75)

    def test_seed_set_v_z(self, toy):
        # Section 4 computes Gamma_{{v,z},u} = 0.875;
        # total = v(1) + z(1) + w(1) + t(0.5) + u(0.875) = 4.375.
        assert sigma_cd(toy.graph, toy.log, ["v", "z"]) == pytest.approx(4.375)

    def test_kappa_values(self, toy):
        evaluator = CDSpreadEvaluator(toy.graph, toy.log)
        kappa = evaluator.kappa(["v", "z"])
        assert kappa["u"] == pytest.approx(0.875)
        assert kappa["t"] == pytest.approx(0.5)
        assert kappa["v"] == 1.0
        assert kappa["z"] == 1.0
        assert "s" not in kappa  # no credit flows from the seed set to s

    def test_empty_seed_set(self, toy):
        assert sigma_cd(toy.graph, toy.log, []) == 0.0

    def test_all_seeds(self, toy):
        # Every log user as seed: spread = number of active users.
        everyone = ["v", "s", "w", "t", "z", "u"]
        assert sigma_cd(toy.graph, toy.log, everyone) == pytest.approx(6.0)


class TestEvaluator:
    def test_candidates_are_log_users(self, toy):
        evaluator = CDSpreadEvaluator(toy.graph, toy.log)
        assert set(evaluator.candidates()) == {"v", "s", "w", "t", "z", "u"}

    def test_activity(self, toy):
        evaluator = CDSpreadEvaluator(toy.graph, toy.log)
        assert evaluator.activity("v") == 1
        assert evaluator.activity("stranger") == 0

    def test_seed_outside_log_contributes_zero(self, toy):
        baseline = sigma_cd(toy.graph, toy.log, ["v"])
        with_stranger = sigma_cd(toy.graph, toy.log, ["v", "stranger"])
        assert with_stranger == pytest.approx(baseline)

    def test_action_subset(self, flixster_mini):
        actions = list(flixster_mini.log.actions())[:5]
        evaluator = CDSpreadEvaluator(
            flixster_mini.graph, flixster_mini.log, actions=actions
        )
        seeds = evaluator.candidates()[:3]
        assert evaluator.spread(seeds) >= 0.0

    def test_time_decay_credit_supported(self, flixster_mini):
        params = learn_influenceability(flixster_mini.graph, flixster_mini.log)
        evaluator = CDSpreadEvaluator(
            flixster_mini.graph, flixster_mini.log, credit=TimeDecayCredit(params)
        )
        seeds = evaluator.candidates()[:5]
        uniform = CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)
        # Time-decayed credits are <= uniform credits pointwise.
        assert evaluator.spread(seeds) <= uniform.spread(seeds) + 1e-9


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_recursion(self, seed):
        graph, log = random_instance(seed, num_nodes=7, num_actions=4)
        seeds = [0, 3]
        expected = naive_sigma_cd(graph, log, seeds)
        assert sigma_cd(graph, log, seeds) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5, 9))
    def test_monotone_on_random_instances(self, seed):
        graph, log = random_instance(seed)
        evaluator = CDSpreadEvaluator(graph, log)
        small = evaluator.spread([0])
        larger = evaluator.spread([0, 1])
        assert larger >= small - 1e-12


# ----------------------------------------------------------------------
# Seed-indexed walk == full walk, bit for bit
# ----------------------------------------------------------------------
def _credit(name, graph, log):
    """The ``uniform`` (default) or ``time_decay`` credit for (graph, log)."""
    if name == "uniform":
        return None
    return TimeDecayCredit(learn_influenceability(graph, log))


def _assert_exact(evaluator, seeds, graph, log, credit=None, actions=None):
    """``kappa``/``spread`` equal the oracle's: values, order, floats."""
    expected = reference_kappa(graph, log, seeds, credit=credit, actions=actions)
    assert list(evaluator.kappa(seeds).items()) == list(expected.items())
    spread = evaluator.spread(seeds)
    assert isinstance(spread, float)
    assert spread == sum(expected.values())


def _seed_sets(users, rng, count=25):
    """Random subsets of ``users`` plus the degenerate sets."""
    sets = [
        rng.sample(users, rng.randint(1, min(8, len(users))))
        for _ in range(count)
    ]
    sets.append([])
    sets.append(list(users))
    sets.append(["stranger", 10_000])  # absent from the log
    sets.append(users[:2] + ["stranger"])
    sets.append(users[:1] * 3 + users[1:3] * 2)  # duplicates
    return sets


class TestSeedIndexedParity:
    """Both kernels equal the oracle over fresh propagation DAGs."""

    @pytest.mark.parametrize("credit_name", ["uniform", "time_decay"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed, credit_name):
        graph, log = random_instance(seed, num_nodes=10, num_actions=8)
        credit = _credit(credit_name, graph, log)
        for kernel in KERNELS:
            evaluator = _build(kernel, graph, log, credit)
            rng = random.Random(seed)
            for seeds in _seed_sets(evaluator.candidates(), rng):
                _assert_exact(evaluator, seeds, graph, log, credit)

    @pytest.mark.parametrize("credit_name", ["uniform", "time_decay"])
    def test_flixster_mini(self, flixster_mini, credit_name):
        graph, log = flixster_mini.graph, flixster_mini.log
        credit = _credit(credit_name, graph, log)
        for kernel in KERNELS:
            evaluator = _build(kernel, graph, log, credit)
            users = evaluator.candidates()
            for seeds in _seed_sets(users, random.Random(7), count=60):
                _assert_exact(evaluator, seeds, graph, log, credit)
            # Growing prefixes, as the k-grid scoring calls it.
            for k in range(1, 26):
                _assert_exact(evaluator, users[:k], graph, log, credit)

    def test_tied_timestamps(self):
        """Parents that act at the same time keep ``parents()`` order.

        With ties, trace order and parent order can differ, and a child
        with three or more credited parents then sums to different
        floats in either order; 200 dense instances hold such children.
        """
        for seed in range(200):
            rng = random.Random(seed)
            num_nodes = rng.randint(4, 12)
            graph = SocialGraph()
            for node in range(num_nodes):
                graph.add_node(node)
            for source in range(num_nodes):
                for target in range(num_nodes):
                    if source != target and rng.random() < 0.6:
                        graph.add_edge(source, target)
            log = ActionLog()
            for index in range(rng.randint(1, 4)):
                time = 0.0
                for user in rng.sample(range(num_nodes), rng.randint(2, num_nodes)):
                    time += rng.choice([0.0, 0.0, 1.0])
                    log.add(user, f"a{index}", time)
            seed_sets = [rng.sample(range(num_nodes), k) for k in (1, 2, 3)]
            for kernel in KERNELS:
                evaluator = _build(kernel, graph, log)
                for seeds in seed_sets:
                    _assert_exact(evaluator, seeds, graph, log)

    @pytest.mark.parametrize("seed", range(4))
    def test_extend_equals_union_build(self, seed):
        graph, log = random_instance(seed, num_nodes=10, num_actions=8)
        actions = list(log.actions())
        head = log.restrict_to_actions(actions[:5])
        tail = log.restrict_to_actions(actions[5:])
        union = CDSpreadEvaluator(graph, log, actions=actions)
        for kernel in KERNELS:
            base = _build(kernel, graph, head)
            base.spread([0, 1])  # a queried base must not leak its maps
            extended = base.extend(graph, tail)
            assert extended._kernel == kernel
            assert dump_payload(extended) == dump_payload(union)
            for seeds in _seed_sets(union.candidates(), random.Random(seed)):
                _assert_exact(extended, seeds, graph, log, actions=actions)

    def test_extend_leaves_base_answers_unchanged(self, flixster_mini):
        actions = list(flixster_mini.log.actions())
        head = flixster_mini.log.restrict_to_actions(actions[:-5])
        tail = flixster_mini.log.restrict_to_actions(actions[-5:])
        base = CDSpreadEvaluator(flixster_mini.graph, head)
        seeds = base.candidates()[:6]
        before = list(base.kappa(seeds).items())
        base.extend(flixster_mini.graph, tail)
        assert list(base.kappa(seeds).items()) == before
        _assert_exact(base, seeds, flixster_mini.graph, head)


@st.composite
def _cd_instances(draw):
    """A small (graph, log, credit) with tied timestamps, and seeds.

    Credits are uniform or time-decay with some ``infl = 0``; the seed
    list may be empty and may hold duplicates and users outside the log.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=9))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    graph = SocialGraph()
    for node in range(num_nodes):
        graph.add_node(node)
    for source in range(num_nodes):
        for target in range(num_nodes):
            if source != target and rng.random() < 0.45:
                graph.add_edge(source, target)
    log = ActionLog()
    for index in range(draw(st.integers(min_value=1, max_value=6))):
        participants = rng.sample(range(num_nodes), rng.randint(1, num_nodes))
        time = 0.0
        for user in participants:
            time += rng.choice([0.0, 0.5, 1.0, 2.5])  # ties included
            log.add(user, f"a{index}", time)
    credit = None
    if draw(st.booleans()):
        params = learn_influenceability(graph, log)
        silent = draw(st.sets(st.sampled_from(sorted(params.infl))))
        for user in silent:
            params.infl[user] = 0.0
        credit = TimeDecayCredit(params)
    seeds = draw(
        st.lists(st.integers(min_value=-2, max_value=num_nodes + 1), max_size=10)
    )
    return graph, log, credit, seeds


class TestKernelsMatchTheOracle:
    @pytest.mark.parametrize("kernel", KERNELS)
    @given(instance=_cd_instances())
    @settings(max_examples=80, deadline=None)
    def test_kappa_and_spread(self, kernel, instance):
        graph, log, credit, seeds = instance
        evaluator = _build(kernel, graph, log, credit)
        _assert_exact(evaluator, seeds, graph, log, credit)


class TestSpreadIsAlwaysAFloat:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seeds", [[], ["stranger"], ["stranger", -1]])
    def test_no_activity_is_zero_point_zero(self, toy, kernel, seeds):
        evaluator = _build(kernel, toy.graph, toy.log)
        spread = evaluator.spread(seeds)
        assert isinstance(spread, float) and spread == 0.0
        assert evaluator.kappa(seeds) == {}


class TestPayloadSize:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("credit_name", ["uniform", "time_decay"])
    def test_flixster_mini_payload_bytes(self, flixster_mini, kernel, credit_name):
        graph, log = flixster_mini.graph, flixster_mini.log
        evaluator = _build(kernel, graph, log, _credit(credit_name, graph, log))
        # 140 users, 150 actions, 755 positions and 486 links:
        # 4 * 140 + 8 * 151 + 4 * 755 + 8 * 756 + (4 + 8) * 486 = 16,668
        # bytes of columns, plus the user list and the pickle's framing.
        assert len(evaluator.users) == 140
        assert len(evaluator.offsets) == 151
        assert len(evaluator.position_user) == 755
        assert len(evaluator.link_parent) == 486
        assert len(dump_payload(evaluator)) == 17_133


# ----------------------------------------------------------------------
# The kernel follows the holder; neither it nor the derived maps reach
# the payload
# ----------------------------------------------------------------------
class TestKernelChoice:
    def test_constructor_answers_with_python(self, toy):
        assert CDSpreadEvaluator(toy.graph, toy.log)._kernel == "python"

    @pytest.mark.parametrize("backend", KERNELS)
    def test_a_held_evaluator_follows_the_context(self, toy, backend):
        for kernel in KERNELS:
            stored = dump_payload(_build(kernel, toy.graph, toy.log))
            context = SelectionContext(toy.graph, backend=backend)
            context.set_artifact_loader(
                "cd_evaluator", lambda: load_payload(stored)
            )
            assert context.cd_evaluator()._kernel == backend
            injected = _build(kernel, toy.graph, toy.log)
            context.set_artifact("cd_evaluator", injected)
            assert context.cd_evaluator() is injected
            assert injected._kernel == backend

    @pytest.mark.skipif("numpy" not in KERNELS, reason="needs NumPy")
    def test_kernels_skip_links_without_positive_gamma(self, toy):
        """A custom scheme's zero or negative credits add nothing."""

        def signed(propagation, influencer, influenced):
            if influencer == "v":
                return -0.5
            return 1.0 / propagation.in_degree(influenced)

        evaluator = CDSpreadEvaluator(toy.graph, toy.log, credit=signed)
        seed_sets = [["v"], ["v", "z"], ["s"], ["w", "t"], list(evaluator.users)]
        walked = [list(evaluator.kappa(seeds).items()) for seeds in seed_sets]
        evaluator._kernel = "numpy"
        assert [
            list(evaluator.kappa(seeds).items()) for seeds in seed_sets
        ] == walked

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_worker_pickle_carries_the_kernel(self, toy, kernel):
        evaluator = _build(kernel, toy.graph, toy.log)
        in_worker = pickle.loads(ForkingPickler.dumps(evaluator))
        assert in_worker._kernel == kernel
        assert dump_payload(in_worker) == dump_payload(evaluator)
        # A plain pickle (the stored payload) never carries it.
        assert pickle.loads(pickle.dumps(evaluator))._kernel == "python"
        assert b"numpy" not in dump_payload(evaluator)


# ----------------------------------------------------------------------
# The lazy seed map never reaches bytes
# ----------------------------------------------------------------------
class TestSeedMapStaysOutOfBytes:
    @pytest.fixture()
    def evaluator(self, flixster_mini):
        return CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)

    @pytest.fixture()
    def seed_sets(self, evaluator):
        return _seed_sets(evaluator.candidates(), random.Random(3), count=30)

    def test_payload_identical_before_and_after_queries(
        self, evaluator, seed_sets
    ):
        before = dump_payload(evaluator)
        for seeds in seed_sets:
            evaluator.spread(seeds)
        assert dump_payload(evaluator) == before

    def test_queried_evaluator_round_trips(self, evaluator, seed_sets):
        unqueried = dump_payload(evaluator)
        answers = [list(evaluator.kappa(seeds).items()) for seeds in seed_sets]
        restored = pickle.loads(pickle.dumps(evaluator))
        assert dump_payload(restored) == unqueried
        assert [
            list(restored.kappa(seeds).items()) for seeds in seed_sets
        ] == answers

    def test_threads_on_a_fresh_evaluator_agree(
        self, flixster_mini, evaluator, seed_sets
    ):
        graph, log = flixster_mini.graph, flixster_mini.log
        expected = [
            list(reference_kappa(graph, log, seeds).items())
            for seeds in seed_sets
        ]
        # One fresh evaluator per kernel: the numpy one also derives its
        # depth order under contention.
        fresh = [_build(kernel, graph, log) for kernel in KERNELS]
        workers = 4  # with a 1 µs switch interval their map builds interleave
        barrier = threading.Barrier(workers)
        answers: list = [None] * workers

        def query(slot: int) -> None:
            barrier.wait()
            answers[slot] = [
                list(evaluator.kappa(seeds).items())
                for evaluator in fresh
                for seeds in seed_sets
            ]

        threads = [
            threading.Thread(target=query, args=(slot,))
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
        assert answers == [expected * len(fresh)] * workers
