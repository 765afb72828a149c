"""Unit coverage of the write-set engine: aliases, helpers, super()."""

import ast

from repro.analysis.writes import method_effects


def _effects(source):
    fn = ast.parse(source).body[0]
    return method_effects(fn)


def _attrs(effects):
    return {w.attr for w in effects.writes}


def test_plain_and_nested_assignments():
    effects = _effects(
        "def f(self):\n"
        "    self.a = 1\n"
        "    self.b[k] = 2\n"
        "    self.c.d = 3\n"
        "    local = 4\n"
    )
    assert _attrs(effects) == {"a", "b", "c"}


def test_alias_tracking_through_locals():
    effects = _effects(
        "def f(self, q, view):\n"
        "    buffers = self.msgs[q]\n"
        "    del buffers[view]\n"
    )
    assert _attrs(effects) == {"msgs"}


def test_alias_through_accessor_and_mutator_calls():
    effects = _effects(
        "def f(self, q, m):\n"
        "    log = self.msgs.get(q)\n"
        "    log.append(m)\n"
        "    self.acked.setdefault(q, {})\n"
    )
    assert _attrs(effects) == {"msgs", "acked"}


def test_rebound_alias_stops_counting():
    effects = _effects(
        "def f(self, m):\n"
        "    buf = self.queue\n"
        "    buf = []\n"
        "    buf.append(m)\n"
    )
    assert _attrs(effects) == set()


def test_reads_are_not_writes():
    effects = _effects(
        "def f(self):\n"
        "    x = self.a\n"
        "    y = len(self.b)\n"
        "    return self.c[0] + x + y\n"
    )
    assert _attrs(effects) == set()


def test_del_and_augmented_assignment():
    effects = _effects(
        "def f(self):\n"
        "    del self.a\n"
        "    del self.b[0]\n"
        "    self.c += 1\n"
    )
    assert _attrs(effects) == {"a", "b", "c"}


def test_helper_effect_and_super_calls_are_separated():
    effects = _effects(
        "def f(self):\n"
        "    self._prune()\n"
        "    self._eff_view(1)\n"
        "    super()._sync()\n"
    )
    assert effects.helper_calls == {"_prune"}
    assert effects.super_calls == {"_sync"}
    assert [name for name, _line in effects.eff_calls] == ["_eff_view"]


def test_framework_mutators_count_as_writes():
    effects = _effects("def f(self):\n    self.touch()\n")
    assert _attrs(effects) == {"_state_version"}


def test_tuple_unpack_tracks_each_alias_pairwise():
    effects = _effects(
        "def f(self, m):\n"
        "    head, tail = self.queue, self.backlog\n"
        "    head.append(m)\n"
        "    tail.clear()\n"
    )
    assert _attrs(effects) == {"queue", "backlog"}


def test_chained_assignment_aliases_every_target():
    effects = _effects(
        "def f(self, q, m):\n"
        "    log = cache = self.msgs[q]\n"
        "    log.append(m)\n"
    )
    assert _attrs(effects) == {"msgs"}


def test_starred_unpack_falls_back_to_conservative_aliasing():
    effects = _effects(
        "def f(self, m):\n"
        "    first, *rest = self.parts\n"
        "    first.append(m)\n"
    )
    assert _attrs(effects) == {"parts"}


def test_deque_bisect_and_heapq_mutators_count_as_writes():
    effects = _effects(
        "def f(self, m):\n"
        "    self.pending.extendleft([m])\n"
        "    self.window.rotate(1)\n"
        "    insort(self.ordered, m)\n"
        "    heapq.heappush(self.heap, m)\n"
    )
    assert _attrs(effects) == {"pending", "window", "ordered", "heap"}


def test_subscript_writes_carry_key_sensitivity():
    effects = _effects(
        "def f(self, q, m):\n"
        "    self.slots[q] = m\n"
        "    self.meta['fixed'] = m\n"
        "    self.blob[q + 1] = m\n"
    )
    keyed = {(w.attr, w.key) for w in effects.writes}
    assert ("slots", "p:q") in keyed
    assert ("meta", "k:'fixed'") in keyed
    assert ("blob", None) in keyed


def test_reads_carry_key_sensitivity():
    effects = _effects(
        "def f(self, q):\n"
        "    a = self.table[q]\n"
        "    b = self.table['fixed']\n"
        "    return a, b, self.flag\n"
    )
    keyed = {(r.attr, r.key) for r in effects.reads}
    assert ("table", "p:q") in keyed
    assert ("table", "k:'fixed'") in keyed
    assert ("flag", None) in keyed


def test_keys_may_alias_semantics():
    from repro.analysis.writes import keys_may_alias

    assert not keys_may_alias("k:'a'", "k:'b'")  # distinct constants
    assert keys_may_alias("k:'a'", "k:'a'")
    assert keys_may_alias("p:q", "k:'a'")  # a parameter takes any value
    assert keys_may_alias("p:q", "p:r")
    assert keys_may_alias(None, "k:'a'")  # unknown aliases everything
