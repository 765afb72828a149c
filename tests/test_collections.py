"""Unit tests for the collection primitives (frozendict, MessageLog)."""

import pytest

from repro._collections import MessageLog, frozendict


class TestFrozendict:
    def test_lookup(self):
        d = frozendict({"a": 1, "b": 2})
        assert d["a"] == 1
        assert d.get("b") == 2
        assert d.get("missing") is None

    def test_len_and_iter(self):
        d = frozendict({"a": 1, "b": 2})
        assert len(d) == 2
        assert sorted(d) == ["a", "b"]

    def test_value_equality(self):
        assert frozendict({"x": 1}) == frozendict({"x": 1})
        assert frozendict({"x": 1}) != frozendict({"x": 2})

    def test_equal_to_plain_mapping(self):
        assert frozendict({"x": 1}) == {"x": 1}

    def test_hash_consistent_with_equality(self):
        assert hash(frozendict({"a": 1, "b": 2})) == hash(frozendict({"b": 2, "a": 1}))

    def test_usable_as_dict_key(self):
        table = {frozendict({"a": 1}): "yes"}
        assert table[frozendict({"a": 1})] == "yes"

    def test_set_returns_new_copy(self):
        d = frozendict({"a": 1})
        d2 = d.set("b", 2)
        assert "b" not in d
        assert d2["b"] == 2

    def test_discard(self):
        d = frozendict({"a": 1, "b": 2})
        assert "a" not in d.discard("a")
        assert d.discard("zz") == d

    def test_no_item_assignment(self):
        d = frozendict({"a": 1})
        with pytest.raises(TypeError):
            d["a"] = 2  # type: ignore[index]

    def test_repr_round_trippable_shape(self):
        assert "frozendict" in repr(frozendict({"a": 1}))

    def test_reads_delegate_to_the_dict(self):
        d = frozendict({"a": 1, "b": 2})
        assert d.get("a", 9) == 1 and d.get("zz", 9) == 9
        assert "a" in d and "zz" not in d
        assert list(d.keys()) == ["a", "b"] and list(d.values()) == [1, 2]
        assert list(d.items()) == [("a", 1), ("b", 2)]
        assert d.items() & {("a", 1), ("c", 3)} == {("a", 1)}  # still set-like views

    def test_equality_of_distinct_objects_and_other_mappings(self):
        import collections

        d = frozendict({"a": 1, "b": 2})
        twin = frozendict([("b", 2), ("a", 1)])
        assert d is not twin and d == twin and not d != twin
        assert d == {"b": 2, "a": 1} and {"b": 2, "a": 1} == d
        assert d == collections.ChainMap({"a": 1}, {"b": 2})
        assert d != {"a": 1} and d != frozendict({"a": 1, "b": 3})
        assert d.__eq__([("a", 1), ("b", 2)]) is NotImplemented
        assert d != [("a", 1), ("b", 2)] and d != 3

    def test_equality_is_symmetric_against_every_operand_kind(self):
        import collections
        import types

        d = frozendict({"a": 1, "b": 2})
        cases = [
            ({"a": 1, "b": 2}, True),  # the plain-dict fast path
            ({"a": 1}, False),
            (frozendict({"b": 2, "a": 1}), True),
            (frozendict({"a": 1, "b": 3}), False),
            (collections.OrderedDict([("b", 2), ("a", 1)]), True),  # a dict subclass
            (collections.defaultdict(int, {"a": 1}), False),
            (collections.ChainMap({"a": 1}, {"b": 2}), True),  # another Mapping
            (types.MappingProxyType({"a": 1, "b": 3}), False),
            ([("a", 1), ("b", 2)], False),  # not a mapping
            (None, False),
            (3, False),
        ]
        for other, equal in cases:
            assert (d == other) is equal and (other == d) is equal, other
            assert (d != other) is not equal and (other != d) is not equal, other

    def test_hash_and_bytes_survive_a_pickle_round_trip(self):
        import pickle

        d = frozendict({"a": 1, "b": 2})
        fresh = pickle.dumps(d)
        hash(d)  # the cached hash is not part of the pickle
        assert pickle.dumps(d) == fresh
        copy = pickle.loads(fresh)
        assert copy == d and hash(copy) == hash(d) and copy is not d
        with pytest.raises(AttributeError):
            copy.extra = 1  # still slotted, still immutable


class TestMessageLog:
    def test_empty(self):
        log = MessageLog()
        assert len(log) == 0
        assert not log
        assert log.longest_prefix() == 0
        assert log.last_index() == 0
        assert log.get(1) is None
        assert not log.has(1)

    def test_append_is_one_indexed(self):
        log = MessageLog()
        assert log.append("m1") == 1
        assert log.append("m2") == 2
        assert log.get(1) == "m1"
        assert log.get(2) == "m2"

    def test_longest_prefix_contiguous(self):
        log = MessageLog()
        log.append("a")
        log.append("b")
        assert log.longest_prefix() == 2

    def test_put_creates_holes(self):
        log = MessageLog()
        log.put(3, "m3")
        assert log.last_index() == 3
        assert log.longest_prefix() == 0
        assert log.has(3)
        assert not log.has(1)

    def test_prefix_advances_when_holes_fill(self):
        log = MessageLog()
        log.put(3, "m3")
        log.put(1, "m1")
        assert log.longest_prefix() == 1
        log.put(2, "m2")
        assert log.longest_prefix() == 3

    def test_put_keeps_existing_message(self):
        # Forwarded duplicates are identical (Invariant 6.6); first write wins.
        log = MessageLog()
        log.put(1, "original")
        log.put(1, "duplicate")
        assert log.get(1) == "original"

    def test_put_rejects_none(self):
        with pytest.raises(ValueError):
            MessageLog().put(1, None)

    def test_put_rejects_non_positive_index(self):
        with pytest.raises(IndexError):
            MessageLog().put(0, "m")

    def test_get_out_of_range(self):
        log = MessageLog()
        log.append("m")
        assert log.get(0) is None
        assert log.get(2) is None

    def test_prefix_items(self):
        log = MessageLog()
        log.append("a")
        log.put(3, "c")
        assert log.prefix_items() == ["a"]

    def test_equality(self):
        a, b = MessageLog(), MessageLog()
        a.append("x")
        b.append("x")
        assert a == b
        b.append("y")
        assert a != b

    def test_mixed_append_and_put(self):
        log = MessageLog()
        log.append("m1")
        log.put(4, "m4")
        log.append("m5")  # append goes after the highest written index
        assert log.get(5) == "m5"
        assert log.longest_prefix() == 1
