"""Negative-path tests: forged trace mutations every checker must reject.

A green safety battery only means something if a broken trace turns it
red.  Each test takes a known-good trace (recorded from a deterministic
simulator episode), applies one targeted corruption, and asserts the
matching checker raises :class:`SpecificationViolation`.  This is the
unit-level counterpart of the chaos engine's ``--self-test``.

The second half is the systematic per-code battery: for every
registered trace rule, the forgery in
:data:`repro.checking.forge.FORGERIES` corrupts the good trace so that
exactly that code is the verdict's primary violation, at a witness index
the forgery computed in advance.  A completeness meta-test pins the
battery to the registry, so adding a code without a negative trace
fails the suite.
"""

import random
from dataclasses import replace

import pytest

from repro.chaos import ChaosOp, ChaosPlan, ChaosRunner, FaultModel
from repro.checking import (
    REGISTRY,
    DeliverEvent,
    GcsTrace,
    MbrshpViewEvent,
    VerdictMonitor,
    ViewEvent,
    extract_skeleton,
    run_verdict,
)
from repro.checking.forge import FORGERIES
from repro.errors import SpecificationViolation

PROCS = ("a", "b", "c")


@pytest.fixture(scope="module")
def good_trace():
    """A fault-free episode with traffic and two reconfigurations.

    The shape guarantees the raw material every mutation needs: two
    FIFO-ordered messages from one sender, self-deliveries followed by
    later view changes, and several membership view notices.
    """
    plan = ChaosPlan(
        seed=0,
        processes=PROCS,
        faults=FaultModel(),
        ops=(),
    ).with_ops([
        ChaosOp("send", pid="a", payload="m1"),
        ChaosOp("send", pid="a", payload="m2"),
        ChaosOp("settle"),
        ChaosOp("reconfigure", members=("a", "b")),
        ChaosOp("settle"),
        ChaosOp("reconfigure", members=PROCS),
    ])
    episode = ChaosRunner("sim").run(plan)
    assert episode.ok, episode.summary()
    return episode.trace


def test_the_unmutated_trace_passes(good_trace):
    run_verdict(good_trace, list(PROCS)).raise_for()


def test_dropped_self_delivery_is_caught(good_trace):
    """Remove a's delivery of its own message: Self Delivery must fail."""
    victim = next(
        e
        for e in good_trace.of_type(DeliverEvent)
        if e.proc == "a" and e.sender == "a"
    )
    mutated = GcsTrace(e for e in good_trace if e is not victim)
    with pytest.raises(SpecificationViolation, match="Self Delivery"):
        run_verdict(mutated, include=["VS-SELF-DLV"]).raise_for()


def test_reordered_fifo_pair_is_caught(good_trace):
    """Swap b's deliveries of a's m1/m2: the spec replay must reject."""
    deliveries = [
        e
        for e in good_trace.of_type(DeliverEvent)
        if e.proc == "b" and e.sender == "a"
    ]
    first, second = deliveries[0], deliveries[1]
    assert (first.payload, second.payload) == ("m1", "m2")
    events = list(good_trace)
    i, j = events.index(first), events.index(second)
    events[i], events[j] = events[j], events[i]
    with pytest.raises(SpecificationViolation, match="not accepted"):
        run_verdict(GcsTrace(events), PROCS, include=["VS-SPEC-REFINE"]).raise_for()


def test_nonmonotonic_view_is_caught(good_trace):
    """Re-deliver the last view: Local Monotonicity must fail."""
    mutated = GcsTrace(good_trace)
    mutated.append(good_trace.of_type(ViewEvent)[-1])
    with pytest.raises(SpecificationViolation, match="Local Monotonicity"):
        run_verdict(mutated, include=["VS-MONO"]).raise_for()


def test_view_without_self_is_caught(good_trace):
    """Strip the recipient from a delivered view: Self Inclusion fails."""
    victim = good_trace.of_type(ViewEvent)[-1]
    forged_view = replace(
        victim.view, members=victim.view.members - {victim.proc}
    )
    forged = replace(victim, view=forged_view)
    mutated = GcsTrace(forged if e is victim else e for e in good_trace)
    with pytest.raises(SpecificationViolation, match="Self Inclusion"):
        run_verdict(mutated, include=["VS-SELF-INCL"]).raise_for()


def test_duplicated_membership_notice_is_caught(good_trace):
    """Replay a membership view notice: Figure 2 conformance must fail."""
    mutated = GcsTrace(good_trace)
    mutated.append(good_trace.of_type(MbrshpViewEvent)[-1])
    with pytest.raises(SpecificationViolation, match="MBRSHP conformance"):
        run_verdict(mutated, PROCS, include=["MBRSHP-CONF"]).raise_for()


# ----------------------------------------------------------------------
# The per-code battery: one forgery per registered trace rule
# ----------------------------------------------------------------------


def test_battery_covers_every_registered_trace_rule():
    """Completeness meta-test: a code without a forgery fails the suite."""
    trace_rules = {code for code, info in REGISTRY.items() if info.trace_rule}
    assert set(FORGERIES) == trace_rules


@pytest.mark.parametrize("code", sorted(FORGERIES))
def test_forgery_produces_its_code_as_primary(code, good_trace):
    """Each forged trace fails with exactly its target code, at the
    witness index the forgery computed in advance."""
    forgery = FORGERIES[code]
    golden = extract_skeleton(good_trace) if forgery.needs_golden else None
    forged = forgery.apply(good_trace)
    assert forged is not None, f"{code}: good trace lacks the raw material"
    assert forged.code == code
    verdict = run_verdict(
        forged.trace,
        list(PROCS),
        final_view=forged.final_view if forgery.needs_final_view else None,
        golden=golden,
    )
    assert not verdict.ok
    assert verdict.primary.code == code, verdict.to_json(indent=2)
    assert verdict.primary.witness_index == forged.expected_index


@pytest.mark.parametrize("code", sorted(FORGERIES))
def test_forged_verdicts_are_byte_identical_across_runs(code, good_trace):
    forgery = FORGERIES[code]
    golden = extract_skeleton(good_trace) if forgery.needs_golden else None
    forged = forgery.apply(good_trace)
    final_view = forged.final_view if forgery.needs_final_view else None
    runs = [
        run_verdict(
            forged.trace, list(PROCS), final_view=final_view, golden=golden
        ).to_json()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Online equals batch: the held-open monitor over the same battery
# ----------------------------------------------------------------------


def _forged_with_options(code, good_trace):
    """The forged trace of ``code`` and the verdict options it needs."""
    forgery = FORGERIES[code]
    forged = forgery.apply(good_trace)
    options = dict(
        final_view=forged.final_view if forgery.needs_final_view else None,
        golden=extract_skeleton(good_trace) if forgery.needs_golden else None,
    )
    return forged.trace, options


@pytest.mark.parametrize("code", sorted(FORGERIES))
def test_monitor_fed_in_random_chunks_equals_the_batch_verdict(code, good_trace):
    """A monitor advanced over a growing trace in seeded random chunks -
    empty ones included, a verdict read between chunks - ends
    byte-identical to one batch pass."""
    forged, options = _forged_with_options(code, good_trace)
    rng = random.Random(code)
    growing = GcsTrace()
    monitor = VerdictMonitor(growing, list(PROCS), **options)
    while len(growing) < len(forged):
        start = len(growing)
        for event in forged.events[start : start + rng.randint(0, 9)]:
            growing.append(event)
        monitor.advance(growing).verdict()
        assert monitor.advance(growing).cursor == len(growing)  # an empty chunk
    batch = run_verdict(forged, list(PROCS), **options)
    assert monitor.verdict().to_json() == batch.to_json()


@pytest.mark.parametrize("code", sorted(FORGERIES))
def test_monitor_verdict_is_a_read(code, good_trace):
    """Asking twice, or advancing after asking, changes no rule: the
    prefix verdict is the prefix's batch verdict, the final the trace's."""
    forged, options = _forged_with_options(code, good_trace)
    prefix = GcsTrace(forged.events[: len(forged) // 2])
    monitor = VerdictMonitor(prefix, list(PROCS), **options).advance(prefix)
    partial = run_verdict(GcsTrace(prefix), list(PROCS), **options).to_json()
    assert monitor.verdict().to_json() == partial
    assert monitor.verdict().to_json() == partial
    for event in forged.events[len(prefix) :]:
        prefix.append(event)
    batch = run_verdict(forged, list(PROCS), **options).to_json()
    assert monitor.advance(prefix).verdict().to_json() == batch
    assert monitor.verdict().to_json() == batch


# ----------------------------------------------------------------------
# raise_for: the raised exception carries the coded finding
# ----------------------------------------------------------------------


@pytest.mark.parametrize("code", sorted(FORGERIES))
def test_raise_for_carries_code_and_witness(code, good_trace):
    """Raising keeps what the verdict knew: the forged code, the
    forgery's witness index, and both spelled out in the message."""
    forgery = FORGERIES[code]
    golden = extract_skeleton(good_trace) if forgery.needs_golden else None
    forged = forgery.apply(good_trace)
    verdict = run_verdict(
        forged.trace,
        list(PROCS),
        final_view=forged.final_view if forgery.needs_final_view else None,
        golden=golden,
    )
    with pytest.raises(SpecificationViolation) as raised:
        verdict.raise_for()
    violation = raised.value.violation
    assert violation is verdict.primary
    assert violation.code == code
    assert violation.witness_index == forged.expected_index
    assert str(raised.value) == violation.describe()
    assert code in str(raised.value)
    assert f"@ event {forged.expected_index}: " in str(raised.value)


def test_raise_for_is_quiet_on_pass(good_trace):
    verdict = run_verdict(good_trace, list(PROCS))
    assert verdict.ok and verdict.code is None
    assert verdict.raise_for() is None
