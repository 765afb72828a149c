"""Hypothesis property tests for the core data structures."""

from hypothesis import given
from hypothesis import strategies as st

from repro._collections import MessageLog, frozendict
from repro.types import ViewId, cut_max, make_cut

keys = st.text(alphabet="abcdef", min_size=1, max_size=3)
small_ints = st.integers(min_value=0, max_value=20)


class TestFrozendictLaws:
    @given(st.dictionaries(keys, small_ints))
    def test_equality_and_hash_agree_with_dict(self, data):
        assert frozendict(data) == frozendict(dict(data))
        assert hash(frozendict(data)) == hash(frozendict(dict(data)))

    @given(st.dictionaries(keys, small_ints), keys, small_ints)
    def test_set_is_persistent(self, data, key, value):
        original = frozendict(data)
        updated = original.set(key, value)
        assert updated[key] == value
        assert original == frozendict(data)  # untouched

    @given(st.dictionaries(keys, small_ints), keys)
    def test_discard_removes_only_that_key(self, data, key):
        original = frozendict(data)
        shrunk = original.discard(key)
        assert key not in shrunk
        assert {k: v for k, v in original.items() if k != key} == dict(shrunk)


class TestMessageLogLaws:
    @given(st.lists(st.integers(), max_size=30))
    def test_append_preserves_order_and_prefix(self, items):
        log = MessageLog()
        for item in items:
            log.append(item)
        assert log.prefix_items() == items
        assert log.longest_prefix() == len(items)

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=15), st.integers()), max_size=30))
    def test_put_prefix_is_maximal_gap_free_run(self, writes):
        log = MessageLog()
        written = {}
        for index, value in writes:
            log.put(index, value)
            written.setdefault(index, value)  # first write wins
        prefix = log.longest_prefix()
        for i in range(1, prefix + 1):
            assert log.has(i)
        assert not log.has(prefix + 1)
        for index, value in written.items():
            assert log.get(index) == value

    @given(st.lists(st.integers(min_value=1, max_value=10), max_size=20))
    def test_prefix_monotone_under_puts(self, indices):
        log = MessageLog()
        previous = 0
        for index in indices:
            log.put(index, index)
            assert log.longest_prefix() >= previous
            previous = log.longest_prefix()


class TestViewIdLaws:
    vids = st.builds(ViewId, st.integers(min_value=0, max_value=100), st.text(alphabet="xy", max_size=2))

    @given(vids, vids)
    def test_total_order(self, a, b):
        assert (a < b) or (b < a) or (a == b)

    @given(vids, vids, vids)
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(vids)
    def test_next_strictly_increases(self, vid):
        assert vid < vid.next()


class TestCutLaws:
    cuts = st.dictionaries(keys, small_ints)

    @given(st.lists(cuts, min_size=1, max_size=5), st.sets(keys, max_size=5))
    def test_cut_max_dominates_every_input(self, raw_cuts, domain):
        cuts = [make_cut(c) for c in raw_cuts]
        merged = cut_max(cuts, domain)
        for cut in cuts:
            for q in domain:
                assert merged[q] >= cut.get(q, 0)

    @given(cuts, st.sets(keys, max_size=5))
    def test_cut_max_idempotent(self, raw, domain):
        cut = make_cut(raw)
        merged = cut_max([cut, cut], domain)
        assert merged == cut_max([cut], domain)
