"""The spec replays against the recorded verdicts: a pinned differential.

A seeded single-mutation fuzzer corrupts known-good traces - the
negative battery's good trace and the simulator traces of
``ChaosPlan.generate(1..6)`` - one mutation at a time (drop, duplicate,
swap or move an event; swap a view for another of the trace; shrink a
transitional set), and audits each mutant under :data:`DEFAULT_CODES`,
:data:`SAFETY_CODES` and every single ``VS-*`` / ``MBRSHP-*`` code.
``replay_subsumption.json`` holds the verdicts recorded when Self
Inclusion, Local Monotonicity, Self Delivery and Virtual Synchrony
were still stated by hand-written rules beside the spec replays.

What must hold against the recording:

* under ``DEFAULT_CODES`` and ``SAFETY_CODES``: the same status and the
  same primary (code and witness); the secondary violations a subset;
* under one code: the same violations, except a *cascade* - a run in
  which the recorded ``DEFAULT_CODES`` verdict shows another spec-replay
  code failing strictly before the earlier of the two witnesses.  A
  replay that refused an unselected step goes on from a state the
  hand-written rule never had, so what follows is not comparable.

The seven source traces are frozen in ``replay_subsumption_sources.json``
as the simulator produced them when the verdicts were recorded: a change
to the simulator's traffic (a message fewer, a timing shifted) would
otherwise change every mutant, and the hand-written rules that gave the
recorded verdicts no longer exist to re-record them.

Tier-1 checks the first :data:`QUICK` mutants of each trace; the slow
test checks all of them.  ``python tests/checking/test_replay_subsumption.py``
re-records the verdicts over the frozen sources with the rules of the
tree it runs in; ``--sources`` re-records the sources from its simulator.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.chaos import ChaosOp, ChaosPlan, ChaosRunner, FaultModel
from repro.checking import (
    DEFAULT_CODES,
    SAFETY_CODES,
    CrashEvent,
    DeliverEvent,
    BlockEvent,
    BlockOkEvent,
    GcsTrace,
    MbrshpStartChangeEvent,
    MbrshpViewEvent,
    RecoverEvent,
    SendEvent,
    ViewEvent,
    run_verdict,
)
from repro.types import View, ViewId, make_view

RECORDING = Path(__file__).with_name("replay_subsumption.json")
SOURCES = Path(__file__).with_name("replay_subsumption_sources.json")

#: Mutants per source trace: all of them (slow), the first QUICK (tier-1).
MUTANTS = 300
QUICK = 50

SINGLE_CODES = (
    "VS-SELF-INCL",
    "VS-MONO",
    "VS-SELF-DLV",
    "VS-VSYNC",
    "VS-TRANS-SET",
    "VS-SPEC-REFINE",
    "MBRSHP-CONF",
    "MBRSHP-SRV-FORK",
    "MBRSHP-SRV-MONO",
)
SELECTIONS: Dict[str, Tuple[str, ...]] = {
    "DEFAULT": DEFAULT_CODES,
    "SAFETY": SAFETY_CODES,
    **{code: (code,) for code in SINGLE_CODES},
}

#: The codes a spec replay reports (FullSafetySpec, MbrshpSpec).
REPLAY_CODES = frozenset(
    {"VS-SELF-INCL", "VS-MONO", "VS-SELF-DLV", "VS-VSYNC", "VS-SPEC-REFINE", "MBRSHP-CONF"}
)

KINDS = ("drop", "duplicate", "swap", "move", "swap-view", "shrink-T")

# One verdict: "" for PASS, else "CODE@witness ..." in verdict order.
Entry = str


def battery_trace() -> GcsTrace:
    """The negative battery's good trace (``test_negative_traces.py``)."""
    procs = ("a", "b", "c")
    plan = ChaosPlan(seed=0, processes=procs, faults=FaultModel(), ops=()).with_ops([
        ChaosOp("send", pid="a", payload="m1"),
        ChaosOp("send", pid="a", payload="m2"),
        ChaosOp("settle"),
        ChaosOp("reconfigure", members=("a", "b")),
        ChaosOp("settle"),
        ChaosOp("reconfigure", members=procs),
    ])
    return ChaosRunner("sim").run(plan).trace


def simulate_sources() -> List[Tuple[str, GcsTrace]]:
    found = [("battery", battery_trace())]
    for seed in range(1, 7):
        found.append((f"chaos{seed}", ChaosRunner("sim").run(ChaosPlan.generate(seed)).trace))
    return found


# The frozen sources: one JSON array per event, its class name, time and
# process, then its own fields in declaration order; a view is
# [counter, origin, members, start_ids], a set a sorted list.
EVENT_CLASSES = {
    cls.__name__: cls
    for cls in (
        SendEvent, DeliverEvent, ViewEvent, BlockEvent, BlockOkEvent,
        MbrshpStartChangeEvent, MbrshpViewEvent, CrashEvent, RecoverEvent,
    )
}


def _encode(value: Any) -> Any:
    if isinstance(value, View):
        return [value.vid.counter, value.vid.origin, sorted(value.members),
                [list(item) for item in sorted(value.start_ids.items())]]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def encode_trace(trace: GcsTrace) -> List[list]:
    return [
        [type(event).__name__, *(_encode(value) for value in vars(event).values())]
        for event in trace.events
    ]


def decode_trace(rows: List[list]) -> GcsTrace:
    views: Dict[str, View] = {}  # one object per view, as a run shares them

    def view(row: list) -> View:
        key = json.dumps(row)
        if key not in views:
            counter, origin, members, start_ids = row
            views[key] = View(ViewId(counter, origin), frozenset(members), dict(start_ids))
        return views[key]

    events = []
    for kind, time, proc, *fields in rows:
        cls = EVENT_CLASSES[kind]
        if cls is ViewEvent:
            fields = [view(fields[0]), frozenset(fields[1])]
        elif cls is MbrshpViewEvent:
            fields = [view(fields[0])]
        elif cls is MbrshpStartChangeEvent:
            fields = [fields[0], frozenset(fields[1])]
        events.append(cls(time, proc, *fields))
    return GcsTrace(events)


def sources() -> List[Tuple[str, GcsTrace]]:
    frozen = json.loads(SOURCES.read_text())
    return [(name, decode_trace(rows)) for name, rows in frozen.items()]


def mutate(events: list, rng: random.Random) -> list:
    """One seeded single mutation of ``events`` (a new list)."""
    events = list(events)
    n = len(events)
    while True:
        kind = rng.choice(KINDS)
        if kind == "drop":
            del events[rng.randrange(n)]
        elif kind == "duplicate":
            i = rng.randrange(n)
            events.insert(rng.randrange(i + 1, n + 1), events[i])
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            events[i], events[j] = events[j], events[i]
        elif kind == "move":
            event = events.pop(rng.randrange(n))
            events.insert(rng.randrange(n), event)
        elif kind == "swap-view":
            slots = [i for i, e in enumerate(events) if isinstance(e, (ViewEvent, MbrshpViewEvent))]
            views: list = []
            for i in slots:
                if events[i].view not in views:
                    views.append(events[i].view)
            i = rng.choice(slots)
            others = [view for view in views if view != events[i].view]
            if not others:
                continue
            events[i] = replace(events[i], view=rng.choice(others))
        else:  # shrink-T
            slots = [i for i, e in enumerate(events) if isinstance(e, ViewEvent) and e.transitional]
            i = rng.choice(slots)
            gone = rng.choice(sorted(events[i].transitional))
            events[i] = replace(events[i], transitional=events[i].transitional - {gone})
        return events


def mutants(name: str, trace: GcsTrace, count: int) -> List[Tuple[str, GcsTrace]]:
    rng = random.Random(f"replay-subsumption:{name}")
    return [(f"{name}:{k}", GcsTrace(mutate(trace.events, rng))) for k in range(count)]


def verdicts(trace: GcsTrace) -> List[Entry]:
    """One entry per selection, in :data:`SELECTIONS` order."""
    return [
        " ".join(f"{v.code}@{v.witness_index}" for v in verdict.violations)
        for verdict in (run_verdict(trace, include=codes) for codes in SELECTIONS.values())
    ]


def violations(entry: Entry) -> List[Tuple[str, int]]:
    return [(code, int(index)) for code, index in (item.split("@") for item in entry.split())]


def compare(recorded: List[Entry], observed: List[Entry]) -> List[str]:
    """The departures of ``observed`` from ``recorded`` the contract forbids."""
    problems = []
    old_by, new_by = (
        {selection: violations(entry) for selection, entry in zip(SELECTIONS, entries)}
        for entries in (recorded, observed)
    )
    for selection in ("DEFAULT", "SAFETY"):
        old, new = old_by[selection], new_by[selection]
        if old[:1] != new[:1]:
            problems.append(f"{selection}: primary {new[:1]} != recorded {old[:1]}")
        elif not all(v in old for v in new):
            problems.append(f"{selection}: secondaries {new} not within recorded {old}")
    for code in SINGLE_CODES:
        old, new = old_by[code], new_by[code]
        if old == new:
            continue
        before = min(entry[0][1] for entry in (old, new) if entry)
        cascade = [
            (other, index)
            for other, index in old_by["DEFAULT"]
            if other != code and other in REPLAY_CODES and index < before
        ]
        if not cascade:
            problems.append(f"{code}: {new} != recorded {old}, and no earlier refusal")
    return problems


def observe(count: int) -> Dict[str, List[Entry]]:
    return {
        case: verdicts(mutant)
        for name, trace in sources()
        for case, mutant in mutants(name, trace, count)
    }


@pytest.fixture(scope="module")
def recording() -> Dict[str, List[Entry]]:
    recorded = json.loads(RECORDING.read_text())
    assert recorded["selections"] == list(SELECTIONS)
    return recorded["cases"]


def _check(recording, count: int) -> None:
    problems = [
        f"{case}: {problem}"
        for case, observed in observe(count).items()
        for problem in compare(recording[case], observed)
    ]
    assert not problems, "\n".join(problems[:20])


def test_recording_is_whole(recording):
    assert len(recording) == 7 * MUTANTS
    assert all(len(entries) == len(SELECTIONS) for entries in recording.values())
    # the fuzzer reaches every code it is meant to compare
    primaries = {violations(entries[0])[0][0] for entries in recording.values() if entries[0]}
    assert REPLAY_CODES - {"VS-SPEC-REFINE"} <= primaries


def test_frozen_sources_round_trip():
    frozen = json.loads(SOURCES.read_text())
    assert list(frozen) == ["battery"] + [f"chaos{seed}" for seed in range(1, 7)]
    for name, trace in sources():
        assert encode_trace(trace) == frozen[name]


def test_quick_subset_matches_the_recording(recording):
    _check(recording, QUICK)


@pytest.mark.slow
def test_every_mutant_matches_the_recording(recording):
    _check(recording, MUTANTS)


# ----------------------------------------------------------------------
# The halves a FullSafetySpec replay alone would miss
# ----------------------------------------------------------------------

V1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})
V2 = make_view(2, ["a", "b"], {"a": 2, "b": 2})


def test_a_lower_view_after_a_recovery_breaks_monotonicity():
    """A recovered end-point restarts in its initial view, so the spec
    replay alone accepts ``view a V2; crash a; recover a; view a V1``;
    Local Monotonicity still fails at the second view."""
    trace = GcsTrace([
        ViewEvent(0.0, "a", V2, frozenset({"a"})),
        CrashEvent(1.0, "a"),
        RecoverEvent(2.0, "a"),
        ViewEvent(3.0, "a", V1, frozenset({"a"})),
    ])
    for codes in (DEFAULT_CODES, SAFETY_CODES, ("VS-MONO",)):
        verdict = run_verdict(trace, ["a", "b"], include=codes)
        assert (verdict.code, verdict.witness_index) == ("VS-MONO", 3)
        assert verdict.primary.message.startswith("Local Monotonicity:")
    assert run_verdict(trace, ["a", "b"], include=["VS-SPEC-REFINE"]).ok


def test_a_send_while_crashed_breaks_self_delivery():
    """The recovery reset forgets what a process did while crashed, so
    the spec replay alone accepts ``crash a; send a m; recover a; view a
    V1``; Self Delivery still fails at the view, and passes once a
    self-delivered m matches the send (mutants chaos2:7 and chaos4:123
    are of this kind)."""
    events = [
        CrashEvent(0.0, "a"),
        SendEvent(1.0, "a", "m"),
        RecoverEvent(2.0, "a"),
        ViewEvent(3.0, "a", V1, frozenset({"a"})),
    ]
    for codes in (DEFAULT_CODES, SAFETY_CODES, ("VS-SELF-DLV",)):
        verdict = run_verdict(GcsTrace(events), ["a", "b"], include=codes)
        assert [(v.code, v.witness_index) for v in verdict.violations] == [("VS-SELF-DLV", 3)]
        assert verdict.primary.message.startswith("Self Delivery:")
        events_matched = events[:2] + [DeliverEvent(1.5, "a", "a", "m")] + events[2:]
        assert run_verdict(GcsTrace(events_matched), ["a", "b"], include=codes).ok


def _notices(*views) -> GcsTrace:
    """a's start_change then membership view, for each of ``views``."""
    trace = GcsTrace()
    for view in views:
        members = frozenset(view.members | {"a"})
        cid = view.start_ids.get("a", 9)
        trace.append(MbrshpStartChangeEvent(float(len(trace)), "a", cid, members))
        trace.append(MbrshpViewEvent(float(len(trace)), "a", view))
    return trace


def test_a_non_monotone_membership_view_fails_the_safety_codes():
    trace = _notices(V2, V1)
    assert run_verdict(trace, ["a", "b"], include=["MBRSHP-CONF"]).code == "MBRSHP-CONF"
    for codes in (SAFETY_CODES, ("VS-MONO",)):
        verdict = run_verdict(trace, ["a", "b"], include=codes)
        assert [(v.code, v.witness_index) for v in verdict.violations] == [("VS-MONO", 3)]
        assert verdict.primary.message.startswith("Local Monotonicity:")


def test_a_self_excluding_membership_view_fails_the_safety_codes():
    alien = make_view(3, ["b"], {"b": 3})
    trace = _notices(V1, alien)
    for codes in (SAFETY_CODES, ("VS-SELF-INCL",)):
        verdict = run_verdict(trace, ["a", "b"], include=codes)
        assert [(v.code, v.witness_index) for v in verdict.violations] == [("VS-SELF-INCL", 3)]
        assert verdict.primary.message.startswith("Self Inclusion:")


def record_sources() -> None:
    lines = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(encode_trace(trace), separators=(',', ':'))}"
        for name, trace in simulate_sources()
    )
    SOURCES.write_text(f"{{\n{lines}\n}}\n")
    print(f"recorded the source traces to {SOURCES.name}")


if __name__ == "__main__" and sys.argv[1:] == ["--sources"]:
    record_sources()
elif __name__ == "__main__":
    cases = observe(MUTANTS)
    lines = ",\n".join(
        f"  {json.dumps(case)}: {json.dumps(entries, separators=(',', ':'))}"
        for case, entries in cases.items()
    )
    RECORDING.write_text(
        f'{{"selections": {json.dumps(list(SELECTIONS))},\n"cases": {{\n{lines}\n}}}}\n'
    )
    print(f"recorded {len(cases)} mutants to {RECORDING.name}")
