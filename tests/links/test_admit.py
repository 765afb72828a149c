"""``LinkCore.admit``: one fan-out admission, with ``outbound`` per
destination as its reference."""

from __future__ import annotations

import pytest

from repro.chaos.faults import FaultInjector, FaultModel
from repro.links import LinkCore

PIDS = ["a", "b", "c", "d", "e"]


class Sized:
    """A message with a wire-volume estimate, like a synchronization message."""

    def estimated_size(self) -> int:
        return 3

    def __repr__(self) -> str:
        return "Sized()"


def plain(core):
    pass


def partitioned(core):
    core.partition([["a", "b", "d"], ["c", "e"]])


def one_component(core):
    core.partition([PIDS])  # every link up, but not the default component


def restricted(core):
    core.restrict("a", ["b", "e"])


def healed(core):
    core.partition([["a"], ["b", "c", "d", "e"]])
    core.heal()


def make_core(setup, faulted):
    faults = None
    if faulted:
        faults = FaultInjector(FaultModel(drop=0.2, duplicate=0.3, delay=0.3, reorder=0.2, seed=5))
    core = LinkCore(faults=faults)
    for pid in PIDS:
        core.ensure(pid)
    setup(core)
    return core


def ledger(core):
    stats = core.stats
    state = (dict(stats.sent), dict(stats.per_link), dict(stats.volume), core.in_flight)
    return state + ((core.faults.rng.getstate(),) if core.faults else ())


def fate(transmission):
    if transmission is None:
        return None
    return transmission.dropped, [(repr(wire), extra) for wire, extra in transmission.copies]


@pytest.mark.parametrize("faulted", [False, True], ids=["no-faults", "faults"])
@pytest.mark.parametrize(
    "setup", [plain, partitioned, one_component, restricted, healed], ids=lambda f: f.__name__
)
def test_admit_equals_outbound_per_destination(setup, faulted):
    fanned, reference = make_core(setup, faulted), make_core(setup, faulted)
    for round_ in range(20):
        src = PIDS[round_ % len(PIDS)]
        dsts = [pid for pid in PIDS if pid != src]
        message = Sized() if round_ % 3 else f"m{round_}"
        admitted = fanned.admit(src, dsts, message)
        expected = [reference.outbound(src, dst, message) for dst in dsts]
        assert [fate(t) for t in admitted] == [fate(t) for t in expected]
        assert ledger(fanned) == ledger(reference)


def test_plain_fan_out_carries_the_message_itself():
    core = make_core(plain, faulted=False)
    message = Sized()
    admitted = core.admit("a", ["b", "c", "d"], message)
    assert [t.copies for t in admitted] == [((message, 0.0),)] * 3
    assert core.totals() == {"Sized": 3} and core.stats.volume == {"Sized": 9}
    assert core.in_flight == 3


@pytest.mark.parametrize("faulted", [False, True], ids=["no-faults", "faults"])
def test_an_empty_fan_out_touches_no_counter(faulted):
    core = make_core(plain, faulted)
    before = ledger(core)
    assert core.admit("a", [], Sized()) == []
    assert core.totals() == {}
    assert dict(core.stats.volume) == {} and dict(core.stats.per_link) == {}
    assert ledger(core) == before
