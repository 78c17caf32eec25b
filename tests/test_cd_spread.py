"""Tests for repro.core.spread (exact sigma_cd evaluation)."""

import pickle
import random
import sys
import threading

import pytest

from repro.core.credit import TimeDecayCredit
from repro.core.params import learn_influenceability
from repro.core.spread import CDSpreadEvaluator, sigma_cd
from repro.store.serialize import dump_payload

from tests.helpers import full_walk_kappa, naive_sigma_cd, random_instance


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


def _assert_exact(evaluator, seeds):
    """``kappa``/``spread`` equal the full walk: values, order, floats."""
    expected = full_walk_kappa(evaluator, seeds)
    assert list(evaluator.kappa(seeds).items()) == list(expected.items())
    assert evaluator.spread(seeds) == sum(expected.values())


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
    @pytest.mark.parametrize("credit_name", ["uniform", "time_decay"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed, credit_name):
        graph, log = random_instance(seed, num_nodes=10, num_actions=8)
        credit = _credit(credit_name, graph, log)
        evaluator = CDSpreadEvaluator(graph, log, credit=credit)
        rng = random.Random(seed)
        for seeds in _seed_sets(evaluator.candidates(), rng):
            _assert_exact(evaluator, seeds)

    @pytest.mark.parametrize("credit_name", ["uniform", "time_decay"])
    def test_flixster_mini(self, flixster_mini, credit_name):
        graph, log = flixster_mini.graph, flixster_mini.log
        credit = _credit(credit_name, graph, log)
        evaluator = CDSpreadEvaluator(graph, log, credit=credit)
        users = evaluator.candidates()
        for seeds in _seed_sets(users, random.Random(7), count=60):
            _assert_exact(evaluator, seeds)
        # Growing prefixes, as the k-grid scoring calls it.
        for k in range(1, 26):
            _assert_exact(evaluator, users[:k])

    @pytest.mark.parametrize("seed", range(4))
    def test_extend_equals_union_build(self, seed):
        graph, log = random_instance(seed, num_nodes=10, num_actions=8)
        actions = list(log.actions())
        head = log.restrict_to_actions(actions[:5])
        tail = log.restrict_to_actions(actions[5:])
        base = CDSpreadEvaluator(graph, head)
        base.spread([0, 1])  # a queried base must not leak its map
        extended = base.extend(graph, tail)
        union = CDSpreadEvaluator(graph, log, actions=actions)
        assert dump_payload(extended) == dump_payload(union)
        for seeds in _seed_sets(union.candidates(), random.Random(seed)):
            _assert_exact(extended, seeds)

    def test_extend_leaves_base_answers_unchanged(self, flixster_mini):
        actions = list(flixster_mini.log.actions())
        head = flixster_mini.log.restrict_to_actions(actions[:-5])
        tail = flixster_mini.log.restrict_to_actions(actions[-5:])
        base = CDSpreadEvaluator(flixster_mini.graph, head)
        seeds = base.candidates()[:6]
        before = list(base.kappa(seeds).items())
        base.extend(flixster_mini.graph, tail)
        assert list(base.kappa(seeds).items()) == before
        _assert_exact(base, seeds)


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
        expected = [
            list(full_walk_kappa(evaluator, seeds).items())
            for seeds in seed_sets
        ]
        fresh = CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)
        workers = 4  # with a 1 µs switch interval their map builds interleave
        barrier = threading.Barrier(workers)
        answers: list = [None] * workers

        def query(slot: int) -> None:
            barrier.wait()
            answers[slot] = [
                list(fresh.kappa(seeds).items()) for seeds in seed_sets
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
        assert answers == [expected] * workers
