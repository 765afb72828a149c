"""Differential tests for the compiled transition-chain engine and the
composition's dirty-tracking enabled-set cache.

Every test here pits the hot path (compiled chains, version-keyed caches)
against the reflective oracle that survives as ``naive_enabled_actions``:
the two must agree exactly - same actions, same order - or seeded
schedules would stop replaying.
"""

import copy
import random

import pytest

from repro.errors import ActionNotEnabled, InheritanceError, UnknownAction
from repro.ioa import (
    Action,
    ActionKind,
    Automaton,
    Composition,
    FairScheduler,
)


class Counter(Automaton):
    SIGNATURE = {
        "inc": ActionKind.OUTPUT,
        "poke": ActionKind.INPUT,
    }

    def __init__(self, name="counter", limit=3, **kwargs):
        self.limit = limit
        super().__init__(name, **kwargs)

    def _state(self):
        self.value = 0
        self.pokes = 0

    def _pre_inc(self, amount):
        return self.value + amount <= self.limit

    def _eff_inc(self, amount):
        self.value += amount

    def _candidates_inc(self):
        if self.value < self.limit:
            yield (1,)

    def _eff_poke(self):
        self.pokes += 1


class EvenCounter(Counter):
    """Child with a projection, a modified action and a new one."""

    SIGNATURE = {
        "inc": ActionKind.OUTPUT,  # modified: extra param `note`
        "reset": ActionKind.INTERNAL,  # new
    }

    PARAM_PROJECTIONS = {
        "inc": lambda amount, note: (amount,),
    }

    def _state(self):
        self.notes = []

    def _pre_inc(self, amount, note):
        return (self.value + amount) % 2 == 0

    def _eff_inc(self, amount, note):
        self.notes.append(note)

    def _candidates_inc(self):
        if self.value < self.limit:
            yield (2, "step")

    def _pre_reset(self):
        return self.value > 0

    def _eff_reset(self):
        self.notes.append("reset")

    def _candidates_reset(self):
        if self.value > 0:
            yield ()


class MutatingChild(Counter):
    """Violates the ownership rule by mutating the parent's variable."""

    SIGNATURE = {"inc": ActionKind.OUTPUT}

    def _eff_inc(self, amount):
        self.value += 100  # illegal: value is owned by Counter


class ListParent(Automaton):
    SIGNATURE = {"grow": ActionKind.OUTPUT}

    def _state(self):
        self.log = []

    def _eff_grow(self):
        self.log.append(len(self.log))

    def _candidates_grow(self):
        if len(self.log) < 3:
            yield ()


class InPlaceMutator(ListParent):
    """Mutates the parent's list *in place* (no rebinding)."""

    SIGNATURE = {"grow": ActionKind.OUTPUT}

    def _eff_grow(self):
        self.log.append("sneaky")


class UnpicklableParent(Automaton):
    SIGNATURE = {"go": ActionKind.OUTPUT}

    def _state(self):
        self.fn = lambda: None  # defeats the pickle fingerprint
        self.count = 0

    def _eff_go(self):
        self.count += 1

    def _candidates_go(self):
        if self.count < 2:
            yield ()


class UnpicklableViolator(UnpicklableParent):
    SIGNATURE = {"go": ActionKind.OUTPUT}

    def _eff_go(self):
        self.count += 10  # illegal, and only deepcopy can tell


# ---------------------------------------------------------------------------
# compiled chains vs the reflective oracle
# ---------------------------------------------------------------------------


def test_compiled_enabled_set_matches_naive_through_a_run():
    auto = EvenCounter(limit=6)
    for _ in range(10):
        assert auto.enabled_actions() == auto.naive_enabled_actions()
        enabled = auto.enabled_actions()
        if not enabled:
            break
        auto.apply(enabled[0])
    assert auto.enabled_actions() == auto.naive_enabled_actions()


def test_compiled_precondition_matches_naive_on_projected_chain():
    auto = EvenCounter(limit=6)
    for action in [
        Action("inc", (2, "a")),
        Action("inc", (1, "b")),
        Action("inc", (7, "c")),
        Action("reset", ()),
    ]:
        assert auto.precondition(action) == auto._naive_precondition(action)


def test_compiled_effects_run_child_first_with_projection():
    auto = EvenCounter(limit=6)
    auto.apply(Action("inc", (2, "hello")))
    assert auto.value == 2  # parent effect saw the projected params
    assert auto.notes == ["hello"]


def test_strict_mode_still_catches_rebinding_violation():
    auto = MutatingChild(strict=True)
    with pytest.raises(InheritanceError, match="modified parent variable 'value'"):
        auto.apply(Action("inc", (1,)))


def test_strict_mode_still_catches_in_place_mutation():
    auto = InPlaceMutator(name="sneak", strict=True)
    with pytest.raises(InheritanceError, match="modified parent variable 'log'"):
        auto.apply(Action("grow", ()))


def test_strict_mode_unpicklable_state_falls_back_to_deepcopy():
    ok = UnpicklableParent("ok", strict=True)
    ok.apply(Action("go", ()))  # legal effect: no error despite lambda state
    assert ok.count == 1
    bad = UnpicklableViolator("bad", strict=True)
    with pytest.raises(InheritanceError, match="modified parent variable 'count'"):
        bad.apply(Action("go", ()))


def test_step_if_enabled_takes_an_enabled_step_as_apply_does():
    stepped, applied = EvenCounter(limit=6), EvenCounter(limit=6)
    for params in [(2, "a"), (1, "odd"), (2, "b")]:
        took = stepped.step_if_enabled("inc", params)
        try:
            applied.apply(Action("inc", params))
        except ActionNotEnabled:
            assert not took
        else:
            assert took
        assert stepped.state_vars() == applied.state_vars()
        assert stepped.state_version == applied.state_version
    assert stepped.value == 4 and stepped.notes == ["a", "b"]
    assert Counter().step_if_enabled("poke", ())  # an input is always enabled


def test_step_if_enabled_refuses_without_touching_the_state():
    auto = EvenCounter(limit=6)
    auto.step_if_enabled("inc", (2, "a"))
    before, version = copy.deepcopy(auto.state_vars()), auto.state_version
    assert not auto.step_if_enabled("inc", (1, "odd"))
    assert auto.state_vars() == before and auto.state_version == version
    with pytest.raises(UnknownAction):
        auto.step_if_enabled("nope", ())


def test_step_if_enabled_keeps_strict_ownership_checks():
    with pytest.raises(InheritanceError, match="modified parent variable 'value'"):
        MutatingChild(strict=True).step_if_enabled("inc", (1,))


# ---------------------------------------------------------------------------
# state versions and cache invalidation
# ---------------------------------------------------------------------------


def test_state_version_bumps_on_apply_reset_and_touch():
    auto = Counter()
    v0 = auto.state_version
    auto.apply(Action("inc", (1,)))
    assert auto.state_version > v0
    v1 = auto.state_version
    auto.touch()
    assert auto.state_version > v1
    v2 = auto.state_version
    auto.reset_state()
    assert auto.state_version > v2
    assert auto.value == 0


def test_composition_cache_tracks_execution():
    a, b = Counter("a", limit=2), Counter("b", limit=1)
    system = Composition([a, b])
    for _ in range(5):
        cached = system.enabled_actions()
        assert cached == system.naive_enabled_actions()
        if not cached:
            break
        owner, action = cached[0]
        system.execute(owner, action)
    assert system.enabled_actions() == system.naive_enabled_actions()


def test_reset_state_invalidates_cached_enabled_set():
    auto = Counter("a", limit=1)
    system = Composition([auto])
    enabled = system.enabled_actions()
    system.execute(*enabled[0])
    assert system.enabled_actions() == []  # exhausted, and the cache knows
    auto.reset_state()
    # No refresh=True needed: reset_state bumped the version counter.
    assert [a.name for _c, a in system.enabled_actions()] == ["inc"]
    assert system.enabled_actions() == system.naive_enabled_actions()


def test_direct_state_poke_requires_touch_or_refresh():
    auto = Counter("a", limit=3)
    system = Composition([auto])
    assert system.enabled_actions()  # primes the cache
    auto.value = 3  # out-of-band mutation, no apply()
    assert system.enabled_actions(refresh=True) == []
    auto.value = 0
    auto.touch()
    assert [a.name for _c, a in system.enabled_actions()] == ["inc"]


def test_enabled_for_agrees_with_enabled_actions():
    a, b = Counter("a", limit=2), EvenCounter("b", limit=4)
    system = Composition([a, b])
    combined = system.enabled_actions()
    per_component = [
        (c, action) for c in (a, b) for action in system.enabled_for(c)
    ]
    assert combined == per_component


# ---------------------------------------------------------------------------
# kind_of caching
# ---------------------------------------------------------------------------


def test_kind_of_cache_and_hide_invalidation():
    a = Counter("a")
    system = Composition([a])
    assert system.kind_of(Action("inc", (1,))) is ActionKind.OUTPUT
    assert system.kind_of(Action("inc", (1,))) is ActionKind.OUTPUT  # cached
    system.hide(["inc"])
    assert system.kind_of(Action("inc", (1,))) is ActionKind.INTERNAL


# ---------------------------------------------------------------------------
# fair-scheduler order under the deque rotation
# ---------------------------------------------------------------------------


class NaiveFairScheduler:
    """Pre-optimisation replica: list.pop(0)/append and the naive oracle."""

    def __init__(self, system, seed=0):
        self.system = system
        self.rng = random.Random(seed)
        self._queue = []
        for component in system.components:
            for task_name, selector in component.tasks().items():
                self._queue.append((component, task_name, selector))
        self.executed = []

    @staticmethod
    def _in_task(action, selector):
        if callable(selector):
            return bool(selector(action))
        return action.name in selector

    def step(self):
        for _ in range(len(self._queue)):
            component, task_name, selector = self._queue.pop(0)
            self._queue.append((component, task_name, selector))
            actions = [
                action
                for action in component.naive_enabled_actions()
                if self._in_task(action, selector)
            ]
            if actions:
                action = self.rng.choice(actions)
                self.system.execute(component, action)
                self.executed.append((component.name, action))
                return True
        return False

    def run(self, max_steps=10_000):
        executed = 0
        while executed < max_steps and self.step():
            executed += 1
        return executed


def _make_system():
    return Composition(
        [Counter("a", limit=3), EvenCounter("b", limit=6), Counter("c", limit=2)]
    )


def test_fair_scheduler_visit_order_identical_to_naive_replica():
    recorded = []
    fast = FairScheduler(_make_system(), seed=7)
    fast.add_hook(lambda _s, owner, action: recorded.append((owner.name, action)))
    fast_steps = fast.run()

    naive = NaiveFairScheduler(_make_system(), seed=7)
    naive_steps = naive.run()

    assert fast_steps == naive_steps
    assert recorded == naive.executed


def test_fair_scheduler_seed_reproducible():
    runs = []
    for _ in range(2):
        recorded = []
        scheduler = FairScheduler(_make_system(), seed=42)
        scheduler.add_hook(lambda _s, o, a, rec=recorded: rec.append((o.name, a)))
        scheduler.run()
        runs.append(recorded)
    assert runs[0] == runs[1]
