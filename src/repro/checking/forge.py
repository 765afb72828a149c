"""Per-code trace forgeries: the negative battery behind the verdict engine.

A green verdict only means something if every registered rule turns red
on a trace that violates exactly it.  Each :class:`Forgery` takes a
known-good trace and applies one targeted corruption chosen so that its
code is the *primary* violation (earliest witness, first in the
deterministic order) and so that the expected witness index is
computable in advance.  The constructions are deliberately conservative:
a corruption that would trip an unrelated rule at an earlier index (for
example, removing a non-final FIFO delivery, which breaks the spec
replay before the targeted property) is avoided by picking the victim
event carefully - see each builder's notes.

Used by the negative-trace test battery (one forgery per registered
trace rule, enforced by a completeness meta-test), by
``python -m repro verdict --mutate CODE``, and - through
:func:`as_mutator` - as ``ChaosRunner`` trace mutators for the
shrink-witness stability tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro._collections import frozendict
from repro.checking.events import (
    CrashEvent,
    DeliverEvent,
    GcsEvent,
    GcsTrace,
    MbrshpFormEvent,
    MbrshpStartChangeEvent,
    MbrshpViewEvent,
    RecoverEvent,
    SendEvent,
    ViewEvent,
)
from repro.types import ProcessId, View, ViewId


@dataclass
class ForgedTrace:
    """One corrupted trace and the verdict it must produce."""

    trace: GcsTrace
    code: str  # the primary violation code
    expected_index: int  # the earliest witness the verdict must report
    final_view: Optional[View] = None  # pass to run_verdict (VS-LIVE only)


@dataclass(frozen=True)
class Forgery:
    """A targeted corruption producing exactly one primary violation."""

    code: str
    description: str
    apply: Callable[[GcsTrace], Optional[ForgedTrace]]
    needs_final_view: bool = False  # verdict must use ForgedTrace.final_view
    needs_golden: bool = False  # verdict needs the pre-forgery skeleton


def as_mutator(forgery: Forgery) -> Callable[[GcsTrace], GcsTrace]:
    """Adapt a forgery to the ``ChaosRunner`` ``mutate_trace`` hook.

    Traces without the forgery's raw material pass through unchanged, so
    a shrinker candidate that lost the material simply stops failing and
    is rejected (rather than crashing the run).
    """

    def mutate(trace: GcsTrace) -> GcsTrace:
        forged = forgery.apply(trace)
        return forged.trace if forged is not None else trace

    return mutate


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def _identity_index(trace: GcsTrace, victim: GcsEvent) -> int:
    """Position of ``victim`` by identity (equal events may repeat)."""
    return next(i for i, e in enumerate(trace) if e is victim)


def _forge_last_view(
    trace: GcsTrace, code: str, forge: Callable[[ViewEvent], ViewEvent]
) -> Optional[ForgedTrace]:
    """Replace the last view delivery by ``forge`` of it, witnessed there."""
    views = trace.of_type(ViewEvent)
    if not views:
        return None
    index = _identity_index(trace, views[-1])
    events = list(trace)
    events[index] = forge(views[-1])
    return ForgedTrace(GcsTrace(events), code, index)


def _forge_self_inclusion(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Strip the recipient from the last delivered view.

    The spec replay and the transitional-set rule break at the same
    event, but Self Inclusion wins the deterministic order there
    (contract class, lexically first), so it is the primary.
    """
    return _forge_last_view(
        trace,
        "VS-SELF-INCL",
        lambda e: replace(e, view=replace(e.view, members=e.view.members - {e.proc})),
    )


def _forge_monotonicity(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Re-deliver the last view: its identifier is now non-increasing."""
    views = trace.of_type(ViewEvent)
    if not views:
        return None
    mutated = GcsTrace(trace)
    mutated.append(views[-1])
    return ForgedTrace(mutated, "VS-MONO", len(trace))


def _forge_self_delivery(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Remove the *last* self-delivery of a segment closed by a view.

    Removing an earlier one would leave a FIFO gap the spec replay
    rejects at the next self-delivery - before the view event where Self
    Delivery is checked - so only the final (p, p) delivery of a segment
    keeps the targeted code primary.
    """
    last_self: Dict[ProcessId, int] = {}
    for index, event in enumerate(trace):
        p = event.proc
        if isinstance(event, DeliverEvent) and event.sender == p:
            last_self[p] = index
        elif isinstance(event, ViewEvent) and p in last_self:
            victim = last_self[p]
            events = [e for i, e in enumerate(trace) if i != victim]
            return ForgedTrace(GcsTrace(events), "VS-SELF-DLV", index - 1)
        elif isinstance(event, (ViewEvent, RecoverEvent, CrashEvent)):
            last_self.pop(p, None)
    return None


def _forge_virtual_synchrony(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Remove one co-mover's last delivery from another sender.

    The victim delivery must come from a *different* sender (or Self
    Delivery would fire first, lexically earlier) and be the last from
    that sender in its segment (or the spec's FIFO check would fire
    earlier).  The disagreement is witnessed at the second co-mover's
    view event.
    """
    movers = _co_movers(trace)
    for mover_events in movers.values():
        if len(mover_events) < 2:
            continue
        for position, (proc, view_index) in enumerate(mover_events):
            victim = _last_foreign_delivery(trace, proc, view_index)
            if victim is None:
                continue
            # The mismatch surfaces at the first *other* mover whose
            # vector disagrees with the recorded one: the second mover
            # overall if the victim's owner moved first, else the
            # victim's owner's own view event.
            witness = mover_events[1][1] if position == 0 else view_index
            events = [e for i, e in enumerate(trace) if i != victim]
            return ForgedTrace(GcsTrace(events), "VS-VSYNC", witness - 1)
    return None


def _co_movers(trace: GcsTrace) -> Dict[Tuple[View, View], List[Tuple[ProcessId, int]]]:
    """(old view, new view) -> in-order (proc, view event index) movers."""
    from repro.types import initial_view

    current: Dict[ProcessId, View] = {}
    movers: Dict[Tuple[View, View], List[Tuple[ProcessId, int]]] = {}
    for index, event in enumerate(trace):
        if isinstance(event, RecoverEvent):
            current[event.proc] = initial_view(event.proc)
        elif isinstance(event, ViewEvent):
            old = current.get(event.proc, initial_view(event.proc))
            movers.setdefault((old, event.view), []).append((event.proc, index))
            current[event.proc] = event.view
    return movers


def _last_foreign_delivery(
    trace: GcsTrace, proc: ProcessId, view_index: int
) -> Optional[int]:
    """Index of a delivery at ``proc`` before its view event at
    ``view_index``, from a sender other than ``proc``, that is the last
    from that sender in the segment; None if the segment has none."""
    last_by_sender: Dict[ProcessId, int] = {}
    for index in range(view_index - 1, -1, -1):
        event = trace.events[index]
        if event.proc != proc:
            continue
        if isinstance(event, (ViewEvent, RecoverEvent, CrashEvent)):
            break  # segment start
        if isinstance(event, DeliverEvent) and event.sender != proc:
            # walking backwards, the first hit per sender is its last
            last_by_sender.setdefault(event.sender, index)
    return max(last_by_sender.values(), default=None)


def _forge_trans_set(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Drop the recipient from its own transitional set (Property 4.1a).

    No other rule reads T, so the code is primary - and unique.
    """
    return _forge_last_view(
        trace, "VS-TRANS-SET", lambda e: replace(e, transitional=e.transitional - {e.proc})
    )


def _forge_spec_refinement(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Swap a same-sender FIFO pair at a third-party receiver.

    Per-sender counts are unchanged, so virtual synchrony and self
    delivery stay green; only the spec replay's gap-free FIFO
    precondition fails, at the earlier of the two positions.
    """
    first_of: Dict[Tuple[ProcessId, ProcessId], int] = {}
    for index, event in enumerate(trace):
        if isinstance(event, (ViewEvent, RecoverEvent, CrashEvent)):
            # new segment at this proc: earlier halves are stale
            first_of = {
                key: i for key, i in first_of.items() if key[0] != event.proc
            }
        elif isinstance(event, DeliverEvent) and event.sender != event.proc:
            key = (event.proc, event.sender)
            earlier = first_of.get(key)
            if earlier is None:
                first_of[key] = index
            elif trace.events[earlier].payload != event.payload:
                events = list(trace)
                events[earlier], events[index] = events[index], events[earlier]
                return ForgedTrace(GcsTrace(events), "VS-SPEC-REFINE", earlier)
    return None


def _forge_mbrshp(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Replay the last start_change notice: its cid is non-increasing.

    Only the MBRSHP conformance rule reads start_change events, so the
    code is primary - and unique.
    """
    notices = trace.of_type(MbrshpStartChangeEvent)
    if not notices:
        return None
    mutated = GcsTrace(trace)
    mutated.append(notices[-1])
    return ForgedTrace(mutated, "MBRSHP-CONF", len(trace))


def _forge_srv_fork(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Append a formation event reusing a seen ViewId with other members.

    Only the server fault-domain rules read :class:`MbrshpFormEvent`, so
    no contract or refinement rule can fire at the appended index.  The
    forging "server" is not the identifier's origin, which keeps the
    counter-monotonicity rule (lexically after FORK anyway) out of play.
    """
    views = trace.of_type(ViewEvent, MbrshpViewEvent, MbrshpFormEvent)
    if not views:
        return None
    victim = views[-1].view
    forged_view = replace(victim, members=victim.members | {"srv-fork-intruder"})
    forged = MbrshpFormEvent(
        time=trace.events[-1].time, proc="srv:forged", view=forged_view
    )
    mutated = GcsTrace(trace)
    mutated.append(forged)
    return ForgedTrace(mutated, "MBRSHP-SRV-FORK", len(trace))


def _forge_srv_mono(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Append an origin's formation pair with a regressing counter.

    Models a membership server that recovered without its durable
    counter watermark: having formed counter 2, it forms counter 1.  A
    fresh origin (never used by the trace's own views) keeps the first,
    benign formation invisible to every other rule - including FORK,
    since both appended identifiers are new.
    """
    if not trace.events:
        return None
    origin = "srv:forged"
    now = trace.events[-1].time
    member = frozenset({"forged-client"})
    high = View(ViewId(2, origin), member, frozendict({"forged-client": 2}))
    stale = View(ViewId(1, origin), member, frozendict({"forged-client": 3}))
    mutated = GcsTrace(trace)
    mutated.append(MbrshpFormEvent(time=now, proc=origin, view=high))
    mutated.append(MbrshpFormEvent(time=now, proc=origin, view=stale))
    return ForgedTrace(mutated, "MBRSHP-SRV-MONO", len(trace) + 1)


def _forge_liveness(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Remove the final view delivery at one process.

    The victim must be that process's last send/deliver/view event, so
    nothing downstream of the removal references the missing view and
    only Property 4.2 - checked against the removed view as the stable
    one - fails, at the end of the run.
    """
    views = trace.of_type(ViewEvent)
    if not views:
        return None
    victim = views[-1]
    index = _identity_index(trace, victim)
    for later in trace.events[index + 1 :]:
        if later.proc == victim.proc and isinstance(
            later, (SendEvent, DeliverEvent, ViewEvent, CrashEvent)
        ):
            return None  # removal would corrupt the suffix
    events = [e for i, e in enumerate(trace) if i != index]
    return ForgedTrace(
        GcsTrace(events), "VS-LIVE", len(trace) - 1, final_view=victim.view
    )


def _forge_skeleton(trace: GcsTrace) -> Optional[ForgedTrace]:
    """Append a send the golden recording never saw.

    A trailing send violates no safety rule (its view never changes
    afterwards), so against the pre-forgery skeleton only VS-SKEL fires,
    witnessing the appended event.
    """
    procs = sorted(trace.processes())
    if not procs:
        return None
    last: GcsEvent = trace.events[-1]
    mutated = GcsTrace(trace)
    mutated.append(SendEvent(time=last.time, proc=procs[0], payload="skel-extra"))
    return ForgedTrace(mutated, "VS-SKEL", len(trace))


FORGERIES: Dict[str, Forgery] = {
    forgery.code: forgery
    for forgery in (
        Forgery(
            "VS-SELF-INCL",
            "strip the recipient from the last delivered view",
            _forge_self_inclusion,
        ),
        Forgery(
            "VS-MONO",
            "re-deliver the last view (non-increasing identifier)",
            _forge_monotonicity,
        ),
        Forgery(
            "VS-SELF-DLV",
            "remove a segment's last self-delivery before its view change",
            _forge_self_delivery,
        ),
        Forgery(
            "VS-VSYNC",
            "remove one co-mover's last delivery from another sender",
            _forge_virtual_synchrony,
        ),
        Forgery(
            "VS-TRANS-SET",
            "drop the recipient from its own transitional set",
            _forge_trans_set,
        ),
        Forgery(
            "VS-SPEC-REFINE",
            "swap a same-sender FIFO delivery pair at a third party",
            _forge_spec_refinement,
        ),
        Forgery(
            "MBRSHP-CONF",
            "replay the last start_change notice",
            _forge_mbrshp,
        ),
        Forgery(
            "MBRSHP-SRV-FORK",
            "re-form a seen view identifier with different members",
            _forge_srv_fork,
        ),
        Forgery(
            "MBRSHP-SRV-MONO",
            "form a regressing counter at a forgetful origin server",
            _forge_srv_mono,
        ),
        Forgery(
            "VS-LIVE",
            "remove the final view delivery at one process",
            _forge_liveness,
            needs_final_view=True,
        ),
        Forgery(
            "VS-SKEL",
            "append a send the golden recording never saw",
            _forge_skeleton,
            needs_golden=True,
        ),
    )
}


__all__ = [
    "FORGERIES",
    "ForgedTrace",
    "Forgery",
    "as_mutator",
]
