"""Unit tests for the core value types (Section 3)."""

import pytest

from repro._collections import frozendict
from repro.types import (
    CID_ZERO,
    VID_ZERO,
    View,
    ViewId,
    cut_max,
    initial_view,
    make_cut,
    make_view,
)


class TestViewId:
    def test_total_order_by_counter(self):
        assert ViewId(1) < ViewId(2)
        assert ViewId(2) > ViewId(1)

    def test_origin_breaks_ties(self):
        assert ViewId(1, "a") < ViewId(1, "b")
        assert ViewId(1, "a") != ViewId(1, "b")

    def test_vid_zero_is_least(self):
        assert VID_ZERO <= ViewId(0)
        assert VID_ZERO < ViewId(1, "anything")

    def test_next_is_strictly_greater(self):
        vid = ViewId(3, "x")
        assert vid.next() > vid
        assert vid.next("y").origin == "y"

    def test_hashable(self):
        assert len({ViewId(1), ViewId(1), ViewId(2)}) == 2

    def test_repr(self):
        assert repr(ViewId(4)) == "ViewId(4)"
        assert "srv" in repr(ViewId(4, "srv"))


class TestView:
    def test_members_coerced_to_frozenset(self):
        view = View(ViewId(1), {"a", "b"}, frozendict({"a": 1, "b": 1}))
        assert isinstance(view.members, frozenset)

    def test_equality_is_triple_equality(self):
        # "Two views are considered the same if they consist of identical
        # triples" - including the startId map.
        v1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})
        v2 = make_view(1, ["a", "b"], {"a": 1, "b": 1})
        v3 = make_view(1, ["a", "b"], {"a": 1, "b": 2})
        assert v1 == v2
        assert v1 != v3

    def test_views_are_hashable_dict_keys(self):
        v1 = make_view(1, ["a"], {"a": 1})
        v2 = make_view(1, ["a"], {"a": 1})
        assert {v1: "x"}[v2] == "x"

    def test_start_id_lookup(self):
        view = make_view(1, ["a", "b"], {"a": 5, "b": 7})
        assert view.start_id("a") == 5
        assert view.start_id("b") == 7

    def test_contains(self):
        view = make_view(1, ["a"], {"a": 1})
        assert "a" in view
        assert "b" not in view

    def test_initial_view_shape(self):
        view = initial_view("p")
        assert view.vid == VID_ZERO
        assert view.members == frozenset({"p"})
        assert view.start_id("p") == CID_ZERO

    def test_make_view_defaults_start_ids(self):
        view = make_view(1, ["a", "b"])
        assert view.start_id("a") == CID_ZERO

    def test_make_view_rejects_missing_start_ids(self):
        with pytest.raises(ValueError):
            make_view(1, ["a", "b"], {"a": 1})


class TestViewValueSemantics:
    """The cached hash is invisible: to equality, pickles and fingerprints."""

    def views(self):
        a = make_view(3, ["a", "b"], {"a": 1, "b": 2})
        b = View(ViewId(3), frozenset({"b", "a"}), frozendict({"b": 2, "a": 1}))
        return a, b

    def test_equal_but_distinct_views_share_a_hash_and_a_dict_slot(self):
        a, b = self.views()
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "log"}[b] == "log"
        assert hash(a) == hash((a.vid, a.members, a.start_ids))  # the dataclass value
        assert a != make_view(3, ["a", "b"], {"a": 1, "b": 3})

    def test_cached_hash_is_absent_from_the_pickle(self):
        import pickle

        a, _b = self.views()
        fresh = pickle.dumps(a)
        assert "_hash" not in vars(a)
        hash(a)
        assert "_hash" in vars(a)
        assert pickle.dumps(a) == fresh  # strict-mode fingerprints do not move
        copy = pickle.loads(fresh)
        assert "_hash" not in vars(copy) and copy == a and hash(copy) == hash(a)

    def test_start_ids_equal_a_plain_dict(self):
        a, _b = self.views()
        assert a.start_ids == {"a": 1, "b": 2}
        assert a == View(a.vid, a.members, {"a": 1, "b": 2})  # coerced on construction


class TestCuts:
    def test_make_cut(self):
        cut = make_cut({"a": 3, "b": 0})
        assert cut["a"] == 3

    def test_cut_max_pointwise(self):
        c1 = make_cut({"a": 1, "b": 5})
        c2 = make_cut({"a": 4, "b": 2})
        merged = cut_max([c1, c2], ["a", "b"])
        assert merged == {"a": 4, "b": 5}

    def test_cut_max_missing_bindings_count_as_zero(self):
        merged = cut_max([make_cut({"a": 2})], ["a", "b"])
        assert merged == {"a": 2, "b": 0}

    def test_cut_max_empty(self):
        assert cut_max([], ["a"]) == {"a": 0}
