"""Unit tests for the MBRSHP specification automaton (Figure 2)."""

import pytest

from repro.ioa import Action
from repro.spec.mbrshp import MODE_CHANGE_STARTED, MODE_NORMAL, MbrshpSpec, MembershipDriver
from repro.types import make_view


@pytest.fixture
def spec():
    return MbrshpSpec(["a", "b", "c"])


def start_change(p, cid, members):
    return Action("mbrshp.start_change", (p, cid, frozenset(members)))


def view(p, v):
    return Action("mbrshp.view", (p, v))


class TestStartChange:
    def test_requires_increasing_cid(self, spec):
        spec.apply(start_change("a", 2, {"a", "b"}))
        assert not spec.is_enabled(start_change("a", 2, {"a", "b"}))
        assert not spec.is_enabled(start_change("a", 1, {"a", "b"}))
        assert spec.is_enabled(start_change("a", 3, {"a", "b"}))

    def test_requires_self_in_set(self, spec):
        assert not spec.is_enabled(start_change("a", 1, {"b", "c"}))

    def test_effect_sets_mode_and_record(self, spec):
        spec.apply(start_change("a", 1, {"a", "b"}))
        assert spec.mode["a"] == MODE_CHANGE_STARTED
        assert spec.start_change["a"].cid == 1
        assert spec.start_change["a"].members == {"a", "b"}


class TestView:
    def test_view_needs_preceding_start_change(self, spec):
        v = make_view(1, ["a"], {"a": 1})
        assert not spec.is_enabled(view("a", v))  # mode is normal

    def test_full_legal_sequence(self, spec):
        spec.apply(start_change("a", 1, {"a", "b"}))
        v = make_view(1, ["a", "b"], {"a": 1, "b": 1})
        spec.apply(view("a", v))
        assert spec.mbrshp_view["a"] == v
        assert spec.mode["a"] == MODE_NORMAL

    def test_view_id_must_increase(self, spec):
        spec.apply(start_change("a", 1, {"a"}))
        spec.apply(view("a", make_view(5, ["a"], {"a": 1})))
        spec.apply(start_change("a", 2, {"a"}))
        assert not spec.is_enabled(view("a", make_view(5, ["a"], {"a": 2})))
        assert not spec.is_enabled(view("a", make_view(4, ["a"], {"a": 2})))

    def test_view_members_subset_of_start_change_set(self, spec):
        spec.apply(start_change("a", 1, {"a", "b"}))
        bad = make_view(1, ["a", "c"], {"a": 1, "c": 1})
        assert not spec.is_enabled(view("a", bad))

    def test_view_requires_self_inclusion(self, spec):
        spec.apply(start_change("a", 1, {"a", "b"}))
        not_mine = make_view(1, ["b"], {"b": 1})
        assert not spec.is_enabled(view("a", not_mine))

    def test_start_id_must_match_latest_cid(self, spec):
        spec.apply(start_change("a", 1, {"a"}))
        spec.apply(start_change("a", 9, {"a"}))
        stale = make_view(1, ["a"], {"a": 1})
        assert not spec.is_enabled(view("a", stale))
        fresh = make_view(1, ["a"], {"a": 9})
        assert spec.is_enabled(view("a", fresh))

    def test_no_second_view_without_new_start_change(self, spec):
        spec.apply(start_change("a", 1, {"a"}))
        spec.apply(view("a", make_view(1, ["a"], {"a": 1})))
        assert not spec.is_enabled(view("a", make_view(2, ["a"], {"a": 1})))

    def test_growing_membership_needs_new_start_change(self, spec):
        # The service may add processes while reconfiguring, as long as a
        # new start_change is sent (Section 3.1).
        spec.apply(start_change("a", 1, {"a", "b"}))
        spec.apply(start_change("a", 2, {"a", "b", "c"}))
        grown = make_view(1, ["a", "b", "c"], {"a": 2, "b": 1, "c": 1})
        assert spec.is_enabled(view("a", grown))


class TestCrashRecovery:
    def test_recover_resets_mode(self, spec):
        spec.apply(start_change("a", 1, {"a"}))
        spec.apply(Action("crash", ("a",)))
        spec.apply(Action("recover", ("a",)))
        assert spec.mode["a"] == MODE_NORMAL

    def test_watermarks_survive_crash(self, spec):
        spec.apply(start_change("a", 7, {"a"}))
        spec.apply(Action("crash", ("a",)))
        spec.apply(Action("recover", ("a",)))
        # the service never forgets: cid 7 is still the watermark
        assert not spec.is_enabled(start_change("a", 7, {"a"}))
        assert spec.is_enabled(start_change("a", 8, {"a"}))


class TestDriver:
    def test_form_view_actions_are_all_enabled_in_order(self, spec):
        driver = MembershipDriver(spec, seed=0)
        _view, actions = driver.form_view(["a", "b"])
        for action in actions:
            assert spec.is_enabled(action), action
            spec.apply(action)

    def test_formed_view_matches_start_ids(self, spec):
        driver = MembershipDriver(spec, seed=0)
        formed, actions = driver.form_view(["a", "b", "c"])
        for action in actions:
            spec.apply(action)
        for p in "abc":
            assert formed.start_id(p) == spec.last_cid(p)

    def test_partitioned_views_are_disjoint_and_legal(self, spec):
        driver = MembershipDriver(spec, seed=0)
        views, actions = driver.partitioned_views([["a"], ["b", "c"]])
        for action in actions:
            assert spec.is_enabled(action)
            spec.apply(action)
        assert views[0].members.isdisjoint(views[1].members)
        assert views[0].vid != views[1].vid

    def test_random_behaviour_is_legal(self, spec):
        driver = MembershipDriver(spec, seed=11)
        for action in driver.random_behaviour(20):
            assert spec.is_enabled(action), action
            spec.apply(action)

    def test_random_behaviour_reproducible(self):
        def gen(seed):
            spec = MbrshpSpec(["a", "b", "c"])
            return MembershipDriver(spec, seed=seed).random_behaviour(10)

        assert gen(5) == gen(5)
