"""Tests for repro.core.index (the UC/SC sparse credit structures)."""

import pickle

import pytest

from repro.core.index import CreditIndex, SeedCredits


def _index(*entries, truncation=0.0):
    """An index holding ``entries`` (each user active once)."""
    index = CreditIndex(truncation=truncation)
    for influencer, _, influenced, _ in entries:
        for user in (influencer, influenced):
            if user not in index.activity:
                index.record_activity(user)
    index.add_entries(entries)
    return index


class TestCreditIndex:
    def test_set_and_get(self):
        index = _index(("v", "a", "u", 0.5))
        assert index.credit("v", "a", "u") == 0.5

    def test_missing_credit_is_zero(self):
        assert CreditIndex().credit("v", "a", "u") == 0.0
        assert _index(("v", "a", "u", 0.5)).credit("u", "a", "v") == 0.0

    def test_mirrors_consistent_after_set(self):
        # The row (by influencer) and the inc order (by influenced) see
        # the same entry.
        index = _index(("v", "a", "u", 0.5))
        assert list(index.row("v")) == [("a", "u", 0.5)]
        assert list(index.sources("u")) == [("v", "a", 0.5)]
        assert list(index.row("u")) == [] and list(index.sources("v")) == []

    def test_rescanned_action_rejected(self):
        index = _index(("v", "a", "u", 0.5))
        with pytest.raises(ValueError, match="already in the index"):
            index.add_entries([("v", "a", "u", 0.7)])
        assert index.total_entries == 1
        assert index.credit("v", "a", "u") == 0.5

    def test_entry_needs_recorded_activity(self):
        index = CreditIndex()
        index.record_activity("v")
        with pytest.raises(ValueError, match="no recorded activity"):
            index.add_entries([("v", "a", "u", 0.5)])

    @staticmethod
    def _through_x(v_to_u=None, v_to_x=0.5, x_to_u=0.4):
        """``v -> x -> u`` on action ``a``, plus ``v -> u`` when given."""
        entries = [("v", "a", "x", v_to_x), ("x", "a", "u", x_to_u)]
        if v_to_u is not None:
            entries.append(("v", "a", "u", v_to_u))
        return _index(*entries)

    def test_subtract_credit(self):
        # Gamma_{v,u} - Gamma_{v,x} Gamma_{x,u} = 0.5 - 0.5 * 0.4.
        index = self._through_x(v_to_u=0.5)
        index.discount_through("x")
        assert index.credit("v", "a", "u") == pytest.approx(0.3)
        assert dict(
            ((source, action), value)
            for source, action, value in index.sources("u")
        )[("v", "a")] == pytest.approx(0.3)
        # The seed's own entries stay for remove_user to drop.
        assert index.credit("v", "a", "x") == 0.5
        assert index.credit("x", "a", "u") == 0.4

    def test_subtract_to_zero_removes_entry(self):
        index = self._through_x(v_to_u=0.2)
        index.discount_through("x")
        assert index.total_entries == 2
        assert ("a", "u") not in {entry[:2] for entry in index.row("v")}
        assert "v" not in {source for source, _, _ in index.sources("u")}

    def test_subtract_missing_entry_is_noop(self):
        index = self._through_x()
        index.discount_through("x")  # no v -> u entry: must not raise
        assert index.total_entries == 2
        assert index.credit("v", "a", "u") == 0.0
        CreditIndex().discount_through("x")  # an unknown seed, too

    def test_remove_user_clears_both_directions(self):
        index = _index(
            ("v", "a", "x", 0.5),   # into x
            ("x", "a", "u", 0.4),   # from x
            ("v", "a", "u", 0.3),   # unrelated
        )
        index.remove_user("x")
        assert index.credit("v", "a", "x") == 0.0
        assert index.credit("x", "a", "u") == 0.0
        assert index.credit("v", "a", "u") == 0.3
        assert index.total_entries == 1

    def test_record_activity(self):
        index = CreditIndex()
        index.record_activity("v")
        index.record_activity("v")
        assert index.activity["v"] == 2

    def test_users_iterates_active_users(self):
        index = CreditIndex()
        index.record_activity("v")
        index.record_activity("u")
        assert sorted(index.users()) == ["u", "v"]
        assert list(index.activity) == ["v", "u"]

    def test_copy_is_deep(self):
        index = _index(("v", "a", "u", 0.5), truncation=0.01)
        duplicate = index.copy()
        duplicate.remove_user("u")
        duplicate.record_activity("v")
        assert index.credit("v", "a", "u") == 0.5
        assert index.activity["v"] == 1
        assert duplicate.truncation == 0.01

    def test_memory_estimate_scales_with_entries(self):
        # nbytes grows by the same amount per entry: three int32 ids, a
        # float64 value, an int32 inc slot and one mask byte.
        assert CreditIndex().nbytes == 16  # the two empty row-bound arrays
        one = _index(("v", "a", "u", 0.5)).nbytes
        two = _index(("v", "a", "u", 0.5), ("v", "a", "w", 0.5)).nbytes
        per_user = 2 * 8 + 4  # row_start, inc_start, activity count
        assert two - one == 25 + per_user

    def test_nbytes_is_the_exact_buffer_size(self):
        index = _index(("v", "a", "u", 0.5))
        assert index.nbytes == (
            3 * 4 + 8 + 4 + 1      # one entry
            + 2 * 3 * 8            # row_start and inc_start, two users
            + 2 * 4                # activity counts
        )

    def test_copy_preserves_structure_and_count(self):
        index = _index(
            ("v", "a", "u", 0.5), ("v", "b", "w", 0.25), ("w", "a", "u", 0.125),
            truncation=0.01,
        )
        duplicate = index.copy()
        assert list(duplicate.entries()) == list(index.entries())
        assert list(duplicate.sources("u")) == list(index.sources("u"))
        assert duplicate.total_entries == index.total_entries
        # The columns must be fresh buffers, not shared references.
        duplicate.discount_through("w")
        duplicate.remove_user("u")
        assert index.credit("v", "a", "u") == 0.5
        assert index.total_entries == 3

    def test_add_entries_keeps_layout_order(self):
        # Entries are appended as given, then sorted stably by
        # influencer: rows follow user ids, each row keeps the order
        # its entries were added in.
        index = _index(
            ("w", "a", "u", 0.5), ("v", "a", "u", 0.25),
            ("w", "a", "t", 0.125), ("v", "b", "t", 0.75),
        )
        assert list(index.activity) == ["w", "u", "v", "t"]
        assert list(index.entries()) == [
            ("w", "a", "u", 0.5), ("w", "a", "t", 0.125),
            ("v", "a", "u", 0.25), ("v", "b", "t", 0.75),
        ]
        assert list(index.sources("u")) == [("w", "a", 0.5), ("v", "a", 0.25)]

    def test_add_entries_appends_new_actions_to_rows(self):
        index = _index(("v", "a", "u", 0.5), ("w", "a", "u", 0.25))
        index.remove_user("w")
        index.add_entries([("w", "b", "v", 0.75), ("v", "b", "u", 0.125)])
        # Dead entries are compacted away; v's new action follows its old.
        assert list(index.entries()) == [
            ("v", "a", "u", 0.5), ("v", "b", "u", 0.125), ("w", "b", "v", 0.75),
        ]
        assert index.total_entries == len(index.val) == 3

    def test_pickle_compacts_dead_entries(self):
        index = _index(
            ("v", "a", "x", 0.5), ("x", "a", "u", 0.4), ("v", "a", "u", 0.3),
            ("u", "b", "v", 0.2),
        )
        index.remove_user("x")
        restored = pickle.loads(pickle.dumps(index, protocol=4))
        assert list(restored.entries()) == list(index.entries())
        assert list(restored.sources("v")) == list(index.sources("v"))
        assert list(restored.activity.items()) == list(index.activity.items())
        assert len(restored.val) == restored.total_entries == 2
        assert pickle.dumps(restored, protocol=4) == pickle.dumps(index, protocol=4)

    def test_negative_truncation_raises(self):
        with pytest.raises(ValueError):
            CreditIndex(truncation=-0.1)

    def test_repr(self):
        index = CreditIndex()
        index.record_activity("v")
        assert "users=1" in repr(index)


class TestSeedCredits:
    def test_default_zero(self):
        assert SeedCredits().get("x", "a") == 0.0

    def test_add_accumulates(self):
        credits = SeedCredits()
        credits.add("x", "a", 0.25)
        credits.add("x", "a", 0.25)
        assert credits.get("x", "a") == pytest.approx(0.5)

    def test_total_sums_across_actions(self):
        credits = SeedCredits()
        credits.add("x", "a", 0.25)
        credits.add("x", "b", 0.5)
        assert credits.total("x") == pytest.approx(0.75)

    def test_by_action_view(self):
        credits = SeedCredits()
        credits.add("x", "a", 0.25)
        assert credits.by_action("x") == {"a": 0.25}
        assert credits.by_action("unknown") == {}

    def test_drop_user(self):
        credits = SeedCredits()
        credits.add("x", "a", 0.25)
        credits.drop_user("x")
        assert credits.get("x", "a") == 0.0
        assert credits.total("x") == 0.0

    def test_drop_unknown_user_is_noop(self):
        SeedCredits().drop_user("nobody")
