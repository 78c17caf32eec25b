"""Tests for repro.utils.rng."""

import random

import pytest

from repro.utils.rng import (
    _coin_bound,
    _mix64,
    _uniform,
    keyed_seed,
    make_rng,
    spawn_rngs,
)


class TestMakeRng:
    def test_none_returns_random_instance(self):
        assert isinstance(make_rng(None), random.Random)

    def test_int_seed_is_deterministic(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_existing_rng_passes_through(self):
        rng = random.Random(7)
        assert make_rng(rng) is rng

    def test_zero_seed_is_valid(self):
        assert isinstance(make_rng(0), random.Random)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(1, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(1, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_children_are_reproducible(self):
        first = [rng.random() for rng in spawn_rngs(9, 3)]
        second = [rng.random() for rng in spawn_rngs(9, 3)]
        assert first == second

    def test_children_are_distinct_streams(self):
        children = spawn_rngs(9, 2)
        assert children[0].random() != children[1].random()

    def test_accepts_parent_rng(self):
        parent = random.Random(3)
        children = spawn_rngs(parent, 2)
        assert len(children) == 2


class TestKeyedCoins:
    def test_seed_coercion(self):
        assert keyed_seed(5) == 5
        assert keyed_seed(random.Random(3)) == random.Random(3).getrandbits(64)
        assert isinstance(keyed_seed(None), int)

    @pytest.mark.parametrize(
        "threshold",
        [0.3, 0.5, 1.0, 1.0 + 1e-9, 5e-324, 2.0 ** -53, 3 * 2.0 ** -53, 0.0],
    )
    def test_hash_bound_agrees_with_the_coin(self, threshold):
        """``coin < p`` and ``hash < _coin_bound(p)`` decide alike,
        at the bound itself and on random hashes."""
        bound = _coin_bound(threshold)
        rng = random.Random(11)
        for _ in range(2000):
            base, key = rng.getrandbits(64), rng.getrandbits(64)
            assert (_uniform(base, key) < threshold) == (
                _mix64(base ^ key) < bound
            )
        for raw in (bound - 1, bound, bound + 1):
            if 0 <= raw < 2 ** 64:
                coin = (raw >> 11) * 2.0 ** -53  # _uniform of this hash
                assert (coin < threshold) == (raw < bound)
