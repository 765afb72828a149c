"""Executable refinement mappings (Section 6, Appendix A).

The paper proves trace inclusion by exhibiting refinement mappings from
the algorithm automata to the specification automata:

* ``R``  : WV_RFIFO  -> WV_RFIFO : SPEC (Lemma 6.1);
* ``R'`` : VS_RFIFO+TS -> VS_RFIFO : SPEC, extended to GCS -> SELF : SPEC
  (Lemmas 6.2 and 6.5) - ``R`` plus the history variable ``H_cut``;
* ``TS`` : VS_RFIFO+TS -> TRANS_SET : SPEC (Lemma 6.4), which needs the
  prophecy variable ``P_legal_views``.

Here each mapping becomes a *checker* attached to a scheduler as a step
hook: for every external step of the algorithm it applies the
corresponding specification step (inferring internal spec actions exactly
as the proofs' action correspondences do) and then asserts that the
refinement equations hold between the two states.  A disabled spec step
or a broken equation raises
:class:`~repro.errors.RefinementViolation`.

For TS, the prophecy variable predicts at start_change time which future
views will carry the given cid.  Running forward we cannot predict, so
the checker schedules each ``set_prev_view_q(v)`` at the first moment the
view ``v`` is *observed* (its earliest possible naming point).  When
``q`` has already moved past the view its synchronization message
declared by then, the checker *retro-times* the internal action instead:
it splices ``set_prev_view_q(v)`` into its recorded script of spec
actions at the position where ``q`` still held the declared view, and
replays the whole script through a fresh spec instance.  Internal actions
do not appear in traces, so the spliced script is a legal specification
execution with the same trace - the offline equivalent of the paper's
prophecy variable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro._collections import frozendict
from repro.checking.events import (
    CrashEvent,
    DeliverEvent,
    GcsEvent,
    GcsTrace,
    RecoverEvent,
    SendEvent,
    ViewEvent,
)
from repro.checking.invariants import WorldView
from repro.core.vs_endpoint import VsRfifoTsEndpoint
from repro.errors import ActionNotEnabled, RefinementViolation
from repro.ioa import Action, Automaton, Composition
from repro.spec.trans_set import TransSetSpec
from repro.spec.vs_rfifo import FullSafetySpec, VsRfifoSpec
from repro.types import ProcessId, View, initial_view


def _fail(message: str) -> None:
    raise RefinementViolation(message)


def infer_set_cut(spec: Any, proc: ProcessId, view: View) -> None:
    """Choose the unique enabling ``set_cut`` for ``proc``'s move to ``view``.

    The first process to move from view v to view v' fixes the cut to the
    last-delivered vector it realised; every later mover must match it
    (Corollary 6.1 made operational).
    """
    old = spec.current_view[proc]
    if (old, view) in spec.cut:
        return
    vector = frozendict({q: spec.last_dlvrd[(q, proc)] for q in spec.processes})
    spec.apply(Action("set_cut", (old, view, vector)))


def reset_recovered_process(spec: Any, proc: ProcessId) -> None:
    """Section 8: a recovered end-point restarts from its initial state.

    The spec mirrors the algorithm's reset (current view, delivery
    indices, the initial-view send queue), so a replay alone accepts a
    lower view after a recovery, and forgets what the process sent or
    self-delivered while it was down.  Local Monotonicity holds across
    recoveries (Section 8: the membership watermarks survive crashes):
    the verdict engine's replay keeps a per-process watermark of the
    last view identifier that this reset leaves alone, and reports a
    view not above it as ``VS-MONO``.  Nothing is reset at the crash
    itself, so the replay also counts a crashed process's sends and
    self-deliveries until its recovery, and reports a mismatch at the
    process's next view as ``VS-SELF-DLV``.
    """
    spec.current_view[proc] = initial_view(proc)
    for q in spec.processes:
        spec.last_dlvrd[(q, proc)] = 0
    spec.msgs[proc].pop(initial_view(proc), None)


class SafetyRefinementChecker:
    """R and R' made executable against WV/VS/SELF specs.

    Attach :meth:`hook` to a scheduler.  ``spec_cls`` selects the target:
    :class:`WvRfifoSpec` checks plain R; :class:`FullSafetySpec` checks
    R' against VS_RFIFO : SPEC and SELF : SPEC simultaneously.
    """

    def __init__(self, world: WorldView, spec_cls: type = FullSafetySpec) -> None:
        self.world = world
        self.spec = spec_cls(world.processes())
        self._check_cuts = isinstance(self.spec, VsRfifoSpec)

    # -- action correspondence ----------------------------------------------

    def hook(self, _system: Composition, _owner: Automaton, action: Action) -> None:
        try:
            self._simulate(action)
        except ActionNotEnabled as exc:
            _fail(f"spec step disabled for algorithm step {action!r}: {exc}")
        self._assert_mapping()

    def _simulate(self, action: Action) -> None:
        if action.name in ("send", "deliver"):
            self.spec.apply(action)
        elif action.name == "view":
            p, view = action.params[0], action.params[1]
            if self._check_cuts:
                infer_set_cut(self.spec, p, view)
            self.spec.apply(Action("view", (p, view, None)))
        # All other algorithm actions simulate the empty spec step.

    # -- the refinement equations -------------------------------------------------

    def _assert_mapping(self) -> None:
        for p, ep in self.world.endpoints.items():
            if self.spec.current_view[p] != ep.current_view:
                _fail(
                    f"R: current_view[{p}] is {self.spec.current_view[p]} in the "
                    f"spec but {ep.current_view} at the end-point"
                )
            for q in self.world.endpoints:
                if self.spec.last_dlvrd[(q, p)] != ep.dlvrd(q):
                    _fail(
                        f"R: last_dlvrd[{q}][{p}] is {self.spec.last_dlvrd[(q, p)]} "
                        f"in the spec but {ep.dlvrd(q)} at the end-point"
                    )
            for view, queue in self.spec.msgs[p].items():
                log = ep.peek_buffer(p, view)
                mine = log.prefix_items() if log is not None else []
                if mine != queue:
                    _fail(
                        f"R: msgs[{p}][{view}] is {queue} in the spec but "
                        f"{mine} at the end-point"
                    )


class TransSetRefinementChecker:
    """The TS refinement (Lemma 6.4) made executable.

    ``prev_view[p][v]`` in the spec must equal
    ``sync_msg[p][v.startId(p)].view`` for the views the prophecy declared
    legal.  The checker performs the declarations (``set_prev_view``) as
    soon as a view is first observed in a membership delivery, reading the
    declared value off the end-points' synchronization messages - the
    white-box state the paper's mapping TS() references.
    """

    def __init__(self, world: WorldView) -> None:
        self.world = world
        self.spec = TransSetSpec(world.processes())
        # Every spec action applied so far, in order - the script that the
        # retro-timing splice replays.
        self._script: list = []

    def _apply(self, action: Action) -> None:
        self.spec.apply(action)
        self._script.append(action)

    def hook(self, _system: Composition, _owner: Automaton, action: Action) -> None:
        if action.name == "mbrshp.view":
            _p, view = action.params
            self._declare_for(view)
        elif action.name == "view":
            p, view = action.params[0], action.params[1]
            T = frozenset(action.params[2]) if len(action.params) > 2 else frozenset()
            self._declare_for(view)
            try:
                self._apply(Action("view", (p, view, T)))
            except ActionNotEnabled as exc:
                _fail(f"TS spec step disabled for view at {p}: {exc}")
            self._assert_mapping()

    def _declare_for(self, view: View) -> None:
        for q in view.members:
            ep = self.world.endpoints.get(q)
            if not isinstance(ep, VsRfifoTsEndpoint):
                continue
            if (q, view) in self.spec.prev_view:
                continue
            sync = ep.sync_msg_for(q, view.start_id(q))
            if sync is None or sync.view is None:
                continue  # not declared yet / compact "not in your T" marker
            declaration = Action("set_prev_view", (q, view))
            if self.spec.current_view[q] == sync.view:
                self._apply(declaration)
            else:
                self._retro_time(declaration, q, sync.view)

    def _retro_time(self, declaration: Action, q: ProcessId, declared_view: View) -> None:
        """Splice an internal declaration into the past and replay.

        ``q`` sent its synchronization message while in ``declared_view``
        and has since moved on; the declaration legally belongs at any
        point where the spec still had ``current_view[q] == declared_view``.
        """
        index = None
        for position, action in enumerate(self._script):
            if (
                action.name == "view"
                and action.params[0] == q
                and action.params[1] == declared_view
            ):
                index = position + 1
                break
        if index is None:
            if declared_view != initial_view(q):
                _fail(
                    f"TS: {q}'s sync declared {declared_view}, which the spec "
                    f"never recorded as {q}'s view"
                )
            index = 0  # declared from the default initial view
        script = self._script[:index] + [declaration] + self._script[index:]
        replayed = TransSetSpec(self.world.processes())
        try:
            for action in script:
                replayed.apply(action)
        except ActionNotEnabled as exc:
            _fail(f"TS: retro-timed declaration for {q} yields an illegal "
                  f"spec execution: {exc}")
        self.spec = replayed
        self._script = script

    def _assert_mapping(self) -> None:
        for p, ep in self.world.endpoints.items():
            if self.spec.current_view[p] != ep.current_view:
                _fail(
                    f"TS: current_view[{p}] is {self.spec.current_view[p]} in the "
                    f"spec but {ep.current_view} at the end-point"
                )


# ----------------------------------------------------------------------
# Trace skeletons: cross-substrate execution equivalence
# ----------------------------------------------------------------------
#
# A *skeleton* is the time-free, view-identifier-free abstraction of a
# trace: per process, the sequence of view segments it passed through,
# and inside each segment the ordered sends and the per-sender ordered
# deliveries.  Everything substrate-specific is erased - wall-clock
# times, view identifiers (whose origin/counter depend on which
# membership server acted), the relative interleaving of *different*
# processes' events, Block/BlockOk handshakes and the membership-service
# notices (whose timing is an implementation detail of each substrate).
# What remains is exactly the application-observable structure the paper
# specifies, so a scenario recorded on one substrate can be asserted
# against the other two: the observed skeleton must equal the recorded
# ("golden") one, and any divergence is witnessed at the earliest trace
# index where the observed run demonstrably departs from the recording.


@dataclass
class _SkeletonSegment:
    """One per-process view segment as observed, with witness indices."""

    kind: str  # "initial" | "view" | "recover"
    opened_at: int  # index of the event that opened the segment
    members: Optional[Tuple[ProcessId, ...]] = None  # sorted; view segments only
    transitional: Optional[Tuple[ProcessId, ...]] = None
    sends: List[Tuple[Any, int]] = field(default_factory=list)  # (payload, index)
    deliveries: Dict[ProcessId, List[Tuple[Any, int]]] = field(default_factory=dict)
    crashed_at: Optional[int] = None
    closed_at: Optional[int] = None  # index of the event opening the next segment

    def abstract(self) -> Dict[str, Any]:
        """The time-free form stored in a golden skeleton."""
        return {
            "kind": self.kind,
            "members": list(self.members) if self.members is not None else None,
            "transitional": (
                list(self.transitional) if self.transitional is not None else None
            ),
            "sends": [payload for payload, _index in self.sends],
            "deliveries": {
                sender: [payload for payload, _index in items]
                for sender, items in sorted(self.deliveries.items())
            },
            "crashed": self.crashed_at is not None,
        }


class SkeletonBuilder:
    """Incrementally fold a trace into per-process skeleton segments."""

    def __init__(self) -> None:
        self.segments: Dict[ProcessId, List[_SkeletonSegment]] = {}

    def feed(self, index: int, event: GcsEvent) -> None:
        if not isinstance(
            event, (SendEvent, DeliverEvent, ViewEvent, CrashEvent, RecoverEvent)
        ):
            return  # Block handshakes and membership notices are erased
        segments = self.segments.get(event.proc)
        if segments is None:
            segments = self.segments[event.proc] = [_SkeletonSegment("initial", index)]
        segment = segments[-1]
        if isinstance(event, ViewEvent):
            segment.closed_at = index
            segments.append(
                _SkeletonSegment(
                    "view",
                    index,
                    members=tuple(sorted(event.view.members)),
                    transitional=tuple(sorted(event.transitional)),
                )
            )
        elif isinstance(event, RecoverEvent):
            segment.closed_at = index
            segments.append(_SkeletonSegment("recover", index))
        elif isinstance(event, SendEvent):
            segment.sends.append((event.payload, index))
        elif isinstance(event, DeliverEvent):
            segment.deliveries.setdefault(event.sender, []).append(
                (event.payload, index)
            )
        elif segment.crashed_at is None:  # CrashEvent
            segment.crashed_at = index


class TraceSkeleton:
    """The recorded (golden) form: per-process abstract segments."""

    def __init__(self, procs: Dict[ProcessId, List[Dict[str, Any]]]) -> None:
        self.procs = procs

    @classmethod
    def from_builder(cls, builder: SkeletonBuilder) -> "TraceSkeleton":
        return cls(
            {
                proc: [segment.abstract() for segment in segments]
                for proc, segments in sorted(builder.segments.items())
            }
        )

    @classmethod
    def from_trace(cls, trace: GcsTrace) -> "TraceSkeleton":
        builder = SkeletonBuilder()
        for index, event in enumerate(trace):
            builder.feed(index, event)
        return cls.from_builder(builder)

    def to_dict(self) -> Dict[str, Any]:
        return {"procs": self.procs}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceSkeleton":
        return cls(dict(data["procs"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TraceSkeleton":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TraceSkeleton) and self.procs == other.procs


def extract_skeleton(trace: GcsTrace) -> TraceSkeleton:
    """The golden-trace abstraction of ``trace`` (see module notes)."""
    return TraceSkeleton.from_trace(trace)


def skeleton_divergence(
    golden: TraceSkeleton, builder: SkeletonBuilder, length: int
) -> Optional[Tuple[int, str]]:
    """Earliest divergence of the observed run from ``golden``, or None.

    The witness is the smallest trace index at which the divergence is
    demonstrable: an *extra* observed element is witnessed where it
    occurred; a *missing* element is witnessed where its absence becomes
    definite (the segment's close, or ``length`` for the final segment).
    """
    candidates: List[Tuple[int, str]] = []
    observed = builder.segments
    for proc in sorted(set(golden.procs) | set(observed)):
        golden_segments = golden.procs.get(proc)
        observed_segments = observed.get(proc)
        if golden_segments is None:
            candidates.append(
                (
                    observed_segments[0].opened_at,
                    f"unexpected process {proc} in the observed run",
                )
            )
            continue
        if observed_segments is None:
            candidates.append(
                (length, f"process {proc} from the golden skeleton never acted")
            )
            continue
        found = _proc_divergence(proc, golden_segments, observed_segments, length)
        if found is not None:
            candidates.append(found)
    return min(candidates) if candidates else None


def _proc_divergence(
    proc: ProcessId,
    golden_segments: List[Dict[str, Any]],
    observed_segments: List[_SkeletonSegment],
    length: int,
) -> Optional[Tuple[int, str]]:
    """First divergent segment of one process; later segments are moot."""
    for k in range(max(len(golden_segments), len(observed_segments))):
        if k >= len(golden_segments):
            segment = observed_segments[k]
            return (
                segment.opened_at,
                f"{proc}: unexpected extra segment #{k} ({segment.kind})",
            )
        if k >= len(observed_segments):
            kind = golden_segments[k]["kind"]
            return (length, f"{proc}: golden segment #{k} ({kind}) never opened")
        found = _segment_divergence(
            proc, k, golden_segments[k], observed_segments[k], length
        )
        if found is not None:
            return found
    return None


def _segment_divergence(
    proc: ProcessId,
    k: int,
    golden: Dict[str, Any],
    observed: _SkeletonSegment,
    length: int,
) -> Optional[Tuple[int, str]]:
    end = observed.closed_at if observed.closed_at is not None else length
    if golden["kind"] != observed.kind:
        return (
            observed.opened_at,
            f"{proc}: segment #{k} is {observed.kind}, golden says {golden['kind']}",
        )
    members = list(observed.members) if observed.members is not None else None
    if golden.get("members") != members:
        return (
            observed.opened_at,
            f"{proc}: segment #{k} members {members} != golden {golden.get('members')}",
        )
    transitional = (
        list(observed.transitional) if observed.transitional is not None else None
    )
    if golden.get("transitional") != transitional:
        return (
            observed.opened_at,
            f"{proc}: segment #{k} transitional {transitional} != golden "
            f"{golden.get('transitional')}",
        )
    candidates: List[Tuple[int, str]] = []
    found = _sequence_divergence(
        golden.get("sends", []),
        observed.sends,
        end,
        f"{proc}: segment #{k} send",
    )
    if found is not None:
        candidates.append(found)
    golden_deliveries = golden.get("deliveries", {})
    for sender in sorted(set(golden_deliveries) | set(observed.deliveries)):
        found = _sequence_divergence(
            golden_deliveries.get(sender, []),
            observed.deliveries.get(sender, []),
            end,
            f"{proc}: segment #{k} delivery from {sender}",
        )
        if found is not None:
            candidates.append(found)
    observed_crashed = observed.crashed_at is not None
    if bool(golden.get("crashed", False)) != observed_crashed:
        if observed_crashed:
            candidates.append(
                (observed.crashed_at, f"{proc}: unexpected crash in segment #{k}")
            )
        else:
            candidates.append(
                (end, f"{proc}: golden crash in segment #{k} never happened")
            )
    return min(candidates) if candidates else None


def _sequence_divergence(
    golden: List[Any],
    observed: List[Tuple[Any, int]],
    end: int,
    what: str,
) -> Optional[Tuple[int, str]]:
    for i in range(max(len(golden), len(observed))):
        if i >= len(observed):
            return (end, f"{what} #{i} ({golden[i]!r}) missing")
        payload, index = observed[i]
        if i >= len(golden):
            return (index, f"{what} #{i} ({payload!r}) unexpected")
        if golden[i] != payload:
            return (index, f"{what} #{i} is {payload!r}, golden says {golden[i]!r}")
    return None


def attach_refinement_checkers(
    scheduler: Any,
    world: WorldView,
    *,
    safety: bool = True,
    transitional: bool = True,
) -> Tuple[Optional[SafetyRefinementChecker], Optional[TransSetRefinementChecker]]:
    """Convenience: hook the refinement checkers onto ``scheduler``."""
    safety_checker = None
    ts_checker = None
    if safety:
        safety_checker = SafetyRefinementChecker(world)
        scheduler.add_hook(safety_checker.hook)
    if transitional:
        ts_checker = TransSetRefinementChecker(world)
        scheduler.add_hook(ts_checker.hook)
    return safety_checker, ts_checker
