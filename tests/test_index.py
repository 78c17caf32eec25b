"""Tests for repro.core.index (the UC/SC sparse credit structures)."""

import pytest

from repro.core.index import CreditIndex, SeedCredits


class TestCreditIndex:
    def test_set_and_get(self):
        index = CreditIndex()
        index.set_credit("v", "a", "u", 0.5)
        assert index.credit("v", "a", "u") == 0.5

    def test_missing_credit_is_zero(self):
        assert CreditIndex().credit("v", "a", "u") == 0.0

    def test_mirrors_consistent_after_set(self):
        index = CreditIndex()
        index.set_credit("v", "a", "u", 0.5)
        assert index.out["v"]["a"]["u"] == 0.5
        assert index.inc["u"]["a"]["v"] == 0.5

    def test_overwrite_does_not_double_count_entries(self):
        index = CreditIndex()
        index.set_credit("v", "a", "u", 0.5)
        index.set_credit("v", "a", "u", 0.7)
        assert index.total_entries == 1
        assert index.credit("v", "a", "u") == 0.7

    @staticmethod
    def _through_x(v_to_u=None, v_to_x=0.5, x_to_u=0.4):
        """``v -> x -> u`` on action ``a``, plus ``v -> u`` when given."""
        index = CreditIndex()
        index.set_credit("v", "a", "x", v_to_x)
        index.set_credit("x", "a", "u", x_to_u)
        if v_to_u is not None:
            index.set_credit("v", "a", "u", v_to_u)
        return index

    def test_subtract_credit(self):
        # Gamma_{v,u} - Gamma_{v,x} Gamma_{x,u} = 0.5 - 0.5 * 0.4.
        index = self._through_x(v_to_u=0.5)
        index.discount_through("x")
        assert index.credit("v", "a", "u") == pytest.approx(0.3)
        assert index.inc["u"]["a"]["v"] == pytest.approx(0.3)
        # The seed's own entries stay for remove_user to drop.
        assert index.credit("v", "a", "x") == 0.5
        assert index.credit("x", "a", "u") == 0.4

    def test_subtract_to_zero_removes_entry(self):
        index = self._through_x(v_to_u=0.2)
        index.discount_through("x")
        assert index.total_entries == 2
        assert "u" not in index.out["v"]["a"]
        assert "v" not in index.inc["u"]["a"]

    def test_subtract_missing_entry_is_noop(self):
        index = self._through_x()
        index.discount_through("x")  # no v -> u entry: must not raise
        assert index.total_entries == 2
        assert index.credit("v", "a", "u") == 0.0
        CreditIndex().discount_through("x")  # an unknown seed, too

    def test_remove_user_clears_both_directions(self):
        index = CreditIndex()
        index.set_credit("v", "a", "x", 0.5)   # into x
        index.set_credit("x", "a", "u", 0.4)   # from x
        index.set_credit("v", "a", "u", 0.3)   # unrelated
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

    def test_copy_is_deep(self):
        index = CreditIndex(truncation=0.01)
        index.record_activity("v")
        index.set_credit("v", "a", "u", 0.5)
        duplicate = index.copy()
        duplicate.remove_user("u")
        duplicate.record_activity("v")
        assert index.credit("v", "a", "u") == 0.5
        assert index.activity["v"] == 1
        assert duplicate.truncation == 0.01

    def test_memory_estimate_scales_with_entries(self):
        index = CreditIndex()
        assert index.estimate_memory_bytes() == 0
        index.set_credit("v", "a", "u", 0.5)
        one = index.estimate_memory_bytes()
        index.set_credit("v", "a", "w", 0.5)
        assert index.estimate_memory_bytes() == 2 * one

    def test_memory_estimate_counts_both_mirrors(self):
        # out and inc each hold every entry, so the per-entry cost must
        # reflect two dict slots — not one (the Figure-8 curves).
        index = CreditIndex()
        index.set_credit("v", "a", "u", 0.5)
        import sys

        assert index.estimate_memory_bytes() == 2 * (sys.getsizeof(0.0) + 80)

    def test_copy_preserves_structure_and_count(self):
        index = CreditIndex(truncation=0.01)
        index.record_activity("v")
        index.set_credit("v", "a", "u", 0.5)
        index.set_credit("v", "b", "w", 0.25)
        index.set_credit("w", "a", "u", 0.125)
        duplicate = index.copy()
        assert duplicate.out == index.out
        assert duplicate.inc == index.inc
        assert duplicate.total_entries == index.total_entries
        # Nested dicts must be fresh objects, not shared references.
        duplicate.set_credit("v", "a", "z", 0.75)
        assert index.credit("v", "a", "z") == 0.0

    def test_bulk_set_credits_matches_set_credit(self):
        loop = CreditIndex(truncation=0.01)
        bulk = CreditIndex(truncation=0.01)
        credits = {
            "u": {"v": 0.5, "w": 0.25},
            "t": {"v": 0.125},
        }
        for influenced, sources in credits.items():
            for influencer, value in sources.items():
                loop.set_credit(influencer, "a", influenced, value)
        bulk.bulk_set_credits("a", credits)
        assert bulk.out == loop.out
        assert bulk.inc == loop.inc
        assert bulk.total_entries == loop.total_entries

    def test_bulk_set_credits_merges_into_existing_entries(self):
        index = CreditIndex()
        index.set_credit("v", "a", "u", 0.5)
        index.bulk_set_credits("a", {"u": {"v": 0.75, "w": 0.25}})
        assert index.credit("v", "a", "u") == 0.75  # overwritten, not doubled
        assert index.credit("w", "a", "u") == 0.25
        assert index.total_entries == 2
        assert index.inc["u"]["a"] == {"v": 0.75, "w": 0.25}

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
