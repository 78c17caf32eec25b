"""Tests for repro.data.actionlog.ActionLog."""

import pytest

from repro.data.actionlog import ActionLog


class TestConstruction:
    def test_empty_log(self):
        log = ActionLog()
        assert log.num_tuples == 0
        assert log.num_actions == 0
        assert log.num_users == 0

    def test_from_tuples(self):
        log = ActionLog.from_tuples([(1, "a", 0.0), (2, "a", 1.0), (1, "b", 2.0)])
        assert log.num_tuples == 3
        assert log.num_actions == 2
        assert log.num_users == 2

    def test_duplicate_user_action_rejected(self):
        log = ActionLog.from_tuples([(1, "a", 0.0)])
        with pytest.raises(ValueError, match="already performed"):
            log.add(1, "a", 5.0)

    def test_same_user_different_actions_allowed(self):
        log = ActionLog.from_tuples([(1, "a", 0.0), (1, "b", 0.0)])
        assert log.activity(1) == 2

    def test_len_matches_num_tuples(self):
        log = ActionLog.from_tuples([(1, "a", 0.0), (2, "a", 1.0)])
        assert len(log) == 2


class TestQueries:
    @pytest.fixture()
    def log(self):
        return ActionLog.from_tuples(
            [
                (2, "a", 5.0),
                (1, "a", 1.0),
                (3, "a", 3.0),
                (1, "b", 0.0),
            ]
        )

    def test_trace_is_chronological(self, log):
        assert log.trace("a") == [(1, 1.0), (3, 3.0), (2, 5.0)]

    def test_trace_unknown_action_raises(self, log):
        with pytest.raises(KeyError):
            log.trace("nope")

    def test_trace_size(self, log):
        assert log.trace_size("a") == 3
        assert log.trace_size("b") == 1

    def test_performed(self, log):
        assert log.performed(1, "a")
        assert not log.performed(2, "b")

    def test_contains(self, log):
        assert (1, "a") in log
        assert (9, "a") not in log

    def test_time_of(self, log):
        assert log.time_of(3, "a") == 3.0

    def test_time_of_missing_raises(self, log):
        with pytest.raises(KeyError):
            log.time_of(3, "b")

    def test_activity(self, log):
        assert log.activity(1) == 2
        assert log.activity(2) == 1
        assert log.activity(99) == 0

    def test_actions_of(self, log):
        assert sorted(log.actions_of(1)) == ["a", "b"]

    def test_actions_universe(self, log):
        assert sorted(log.actions()) == ["a", "b"]

    def test_users(self, log):
        assert sorted(log.users()) == [1, 2, 3]

    def test_tuples_grouped_by_action_chronological(self, log):
        tuples = list(log.tuples())
        assert len(tuples) == 4
        a_times = [time for user, action, time in tuples if action == "a"]
        assert a_times == sorted(a_times)


class TestRestriction:
    @pytest.fixture()
    def log(self):
        return ActionLog.from_tuples(
            [
                (1, "a", 0.0),
                (2, "a", 1.0),
                (1, "b", 0.0),
                (3, "c", 0.0),
            ]
        )

    def test_restrict_to_actions(self, log):
        sub = log.restrict_to_actions(["a"])
        assert sub.num_actions == 1
        assert sub.num_tuples == 2
        assert sub.activity(1) == 1

    def test_restrict_ignores_unknown_actions(self, log):
        sub = log.restrict_to_actions(["a", "zzz"])
        assert sub.num_actions == 1

    def test_restrict_returns_new_log(self, log):
        sub = log.restrict_to_actions(["a"])
        sub.add(9, "z", 0.0)
        assert log.num_actions == 3

    def test_head_tuples_respects_limit(self, log):
        sub = log.head_tuples(2)
        assert sub.num_tuples <= 2

    def test_head_tuples_keeps_whole_traces(self, log):
        sub = log.head_tuples(3)
        for action in sub.actions():
            assert sub.trace_size(action) == log.trace_size(action)

    def test_head_tuples_large_limit_keeps_everything(self, log):
        assert log.head_tuples(100).num_tuples == log.num_tuples

    def test_head_tuples_skips_an_overflowing_trace_not_the_rest(self):
        # Traces of 2, 5 and 1 tuples: the 5-tuple trace would overflow
        # the limit, and the 1-tuple trace after it still fits.
        log = ActionLog.from_tuples(
            [(user, "a", float(user)) for user in range(2)]
            + [(user, "b", float(user)) for user in range(5)]
            + [(0, "c", 0.0)]
        )
        sub = log.head_tuples(3)
        assert list(sub.actions()) == ["a", "c"]
        assert sub.num_tuples == 3

    def test_repr(self, log):
        assert "num_tuples=4" in repr(log)
