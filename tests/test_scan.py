"""Tests for repro.core.scan (Algorithm 2).

The key check: the scanned index reproduces the total credits of the
paper's worked example (Section 4) and of brute-force path recursion on
random instances.
"""

import pytest

import repro.kernels as kernels

from repro.core.credit import UniformCredit
from repro.core.scan import scan_action_log
from repro.data.propagation import PropagationGraph

from tests.helpers import brute_force_set_credit, random_instance


class TestPaperExample:
    """Direct and total credits of the Figure-1 running example."""

    def test_gamma_v_u(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        assert index.credit("v", "a", "u") == pytest.approx(0.75)

    def test_gamma_v_t(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        assert index.credit("v", "a", "t") == pytest.approx(0.5)

    def test_gamma_v_w(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        assert index.credit("v", "a", "w") == pytest.approx(1.0)

    def test_gamma_v_z(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        assert index.credit("v", "a", "z") == pytest.approx(0.5)

    def test_gamma_t_u(self, toy):
        # t reaches u directly (0.25) and via z (1 * 0.25).
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        assert index.credit("t", "a", "u") == pytest.approx(0.5)

    def test_initiators_receive_no_credit(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        assert list(index.sources("v")) == []
        assert list(index.sources("s")) == []

    def test_activity_counts(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        assert all(index.activity[user] == 1 for user in index.activity)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_total_credit_matches_path_recursion(self, seed):
        graph, log = random_instance(seed)
        index = scan_action_log(graph, log, truncation=0.0)
        for action in log.actions():
            propagation = PropagationGraph.build(graph, log, action)
            for target in propagation.nodes():
                for source in propagation.nodes():
                    if source == target:
                        continue
                    expected = brute_force_set_credit(
                        propagation, {source}, target, credit=UniformCredit()
                    )
                    assert index.credit(source, action, target) == pytest.approx(
                        expected, abs=1e-12
                    ), (seed, action, source, target)


class TestTruncation:
    def test_zero_truncation_keeps_everything(self, toy):
        index = scan_action_log(toy.graph, toy.log, truncation=0.0)
        assert index.total_entries > 0

    def test_truncation_reduces_entries(self, flixster_mini):
        loose = scan_action_log(flixster_mini.graph, flixster_mini.log, truncation=0.0)
        tight = scan_action_log(flixster_mini.graph, flixster_mini.log, truncation=0.1)
        assert tight.total_entries < loose.total_entries

    def test_truncated_credits_underestimate(self, flixster_mini):
        """Dropping increments can only lose credit, never add."""
        loose = scan_action_log(flixster_mini.graph, flixster_mini.log, truncation=0.0)
        tight = scan_action_log(
            flixster_mini.graph, flixster_mini.log, truncation=0.05
        )
        for influencer, action, target, value in tight.entries():
            assert value <= loose.credit(influencer, action, target) + 1e-12

    def test_negative_truncation_raises(self, toy):
        with pytest.raises(ValueError):
            scan_action_log(toy.graph, toy.log, truncation=-1)

    def test_mirrors_consistent_after_scan(self, flixster_mini):
        index = scan_action_log(
            flixster_mini.graph, flixster_mini.log, truncation=0.001
        )
        by_influenced = {}
        for influencer, action, target, value in index.entries():
            by_influenced.setdefault(target, []).append(
                (influencer, action, value)
            )
        for target, sources in by_influenced.items():
            assert list(index.sources(target)) == sources


class TestIncrementalScan:
    def test_extending_equals_full_rescan(self, flixster_mini):
        """Folding new traces into a standing index == scanning the union."""
        actions = list(flixster_mini.log.actions())
        first, second = actions[: len(actions) // 2], actions[len(actions) // 2 :]
        incremental = scan_action_log(
            flixster_mini.graph, flixster_mini.log, actions=first
        )
        scan_action_log(
            flixster_mini.graph,
            flixster_mini.log,
            actions=second,
            index=incremental,
        )
        full = scan_action_log(flixster_mini.graph, flixster_mini.log)
        assert incremental.total_entries == full.total_entries
        assert incremental.activity == full.activity
        for influencer, action, target, value in full.entries():
            assert incremental.credit(
                influencer, action, target
            ) == pytest.approx(value)

    def test_incremental_index_gives_same_seeds(self, flixster_mini):
        from repro.core.maximize import cd_maximize

        actions = list(flixster_mini.log.actions())
        partial = scan_action_log(
            flixster_mini.graph, flixster_mini.log, actions=actions[:50]
        )
        scan_action_log(
            flixster_mini.graph,
            flixster_mini.log,
            actions=actions[50:],
            index=partial,
        )
        full = scan_action_log(flixster_mini.graph, flixster_mini.log)
        assert cd_maximize(partial, k=5).seeds == cd_maximize(full, k=5).seeds

    def test_extension_keeps_existing_truncation(self, toy):
        base = scan_action_log(toy.graph, toy.log, truncation=0.05)
        extended = scan_action_log(
            toy.graph, toy.log, actions=[], truncation=0.9, index=base
        )
        assert extended is base
        assert extended.truncation == 0.05


class TestActionSubset:
    def test_scan_subset_of_actions(self, flixster_mini):
        actions = list(flixster_mini.log.actions())[:5]
        index = scan_action_log(
            flixster_mini.graph, flixster_mini.log, actions=actions
        )
        seen_actions = {action for _, action, _, _ in index.entries()}
        assert seen_actions <= set(actions)

    def test_activity_restricted_to_subset(self, flixster_mini):
        actions = list(flixster_mini.log.actions())[:5]
        index = scan_action_log(
            flixster_mini.graph, flixster_mini.log, actions=actions
        )
        expected = sum(flixster_mini.log.trace_size(action) for action in actions)
        assert sum(index.activity.values()) == expected


class TestIndexSize:
    """The index's exact size on flixster_mini, on both backends.

    Each entry takes 25 bytes (three int32 ids, a float64 value, an
    int32 ``inc`` slot and a mask byte) and each user 20 (two int64 row
    bounds and an int32 activity count), plus one row bound per table.
    """

    @pytest.mark.parametrize(
        "backend", ["python"] + (
            ["numpy"] if "numpy" in kernels.available_backends() else []
        ),
    )
    @pytest.mark.parametrize(
        "scheme, entries, nbytes",
        [("uniform", 837, 23741), ("timedecay", 770, 22066)],
    )
    def test_exact_entries_and_nbytes(
        self, flixster_mini, backend, scheme, entries, nbytes
    ):
        from repro.api import SelectionContext

        index = SelectionContext(
            flixster_mini.graph, flixster_mini.log, credit_scheme=scheme,
            backend=backend,
        ).credit_index()
        assert index.total_entries == entries
        assert len(index.user_of) == 140
        assert index.nbytes == nbytes == 25 * entries + 20 * 140 + 16
