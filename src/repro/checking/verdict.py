"""The single-pass verdict engine: every trace rule, one earliest witness.

:func:`run_verdict` runs a set of registered rules
(:mod:`repro.checking.codes`) over a :class:`~repro.checking.events.GcsTrace`
in one pass and returns a structured :class:`Verdict`: ``PASS``, or
``FAIL`` with one :class:`Violation` per violated rule, each carrying the
**earliest** event index witnessing that rule's violation.

Witness semantics: for a rule R, ``witness_index`` is the smallest ``i``
such that the prefix ``trace[0..i]`` already violates R.  Violations that
involve a pair of events (a FIFO inversion, co-movers disagreeing) are
therefore witnessed at the *later* event - the first point where the run
is demonstrably wrong.  End-of-run violations (liveness, a missing
element under a golden skeleton) are witnessed at ``len(trace)``: no
prefix violates them, only the completed run does.

Each rule is an incremental object fed ``(index, event)`` pairs; a rule
retires at its first violation, so its reported witness is minimal by
construction.  :class:`VerdictMonitor` holds the rules open with a read
cursor, so a live run is audited in one pass however often it is asked;
:func:`run_verdict` is one monitor advanced once over a finished trace.
Violations are ordered by the deterministic key of
:func:`repro.checking.codes.violation_sort_key` and the verdict
serialises to canonical JSON - two runs over the same trace are
byte-identical.

Soundness: a ``PASS`` verdict means no *registered* rule in the run's
rule set was violated *on the observed run*.  It says nothing about
other schedules, other interleavings, or properties outside the
registry; see :data:`SOUNDNESS`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.checking.codes import DEFAULT_CODES, REGISTRY, violation_sort_key
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
from repro.checking.refinement import (
    SkeletonBuilder,
    TraceSkeleton,
    infer_set_cut,
    reset_recovered_process,
    skeleton_divergence,
)
from repro.errors import ActionNotEnabled, SpecificationViolation
from repro.ioa import Action
from repro.spec.mbrshp import MbrshpSpec
from repro.spec.vs_rfifo import FullSafetySpec
from repro.types import ProcessId, View, initial_view

#: The run-level guarantee a PASS verdict makes - nothing more.
SOUNDNESS = (
    "PASS => no registered rule in this verdict's rule set was violated on "
    "the observed run; nothing is implied about other schedules or about "
    "properties outside the code registry"
)


@dataclass(frozen=True)
class Violation:
    """One finding: stable code, earliest witness, human message.

    ``witness_index`` is None for a runtime finding (``RUN-*``): a stall
    or a residency breach is a fact about the run, not about an event.
    """

    code: str
    witness_index: Optional[int]
    message: str

    def describe(self) -> str:
        """The one line every summary, report and exception prints."""
        if self.witness_index is None:
            return f"{self.code}: {self.message}"
        return f"{self.code} @ event {self.witness_index}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "witness_index": self.witness_index,
            "message": self.message,
        }


@dataclass(frozen=True)
class Verdict:
    """The structured outcome of one audit: a verdict-engine pass over a
    trace, or (:meth:`runtime`) one finding the run itself produced."""

    status: str  # "PASS" | "FAIL"
    events: int  # trace length
    rules: Tuple[str, ...]  # codes that ran, sorted
    violations: Tuple[Violation, ...]  # deterministically ordered

    @classmethod
    def runtime(cls, code: str, message: str) -> "Verdict":
        """A FAIL verdict holding one runtime (``RUN-*``) finding.

        No trace was audited, so no rule ran and nothing witnesses it:
        ``events`` is 0, ``rules`` empty, ``witness_index`` None.
        """
        if REGISTRY[code].trace_rule:
            raise ValueError(f"{code} is a trace rule, not a runtime finding")
        return cls("FAIL", 0, (), (Violation(code, None, message),))

    @property
    def ok(self) -> bool:
        return self.status == "PASS"

    @property
    def primary(self) -> Optional[Violation]:
        """The headline violation: earliest witness, then class, then code."""
        return self.violations[0] if self.violations else None

    @property
    def code(self) -> Optional[str]:
        return self.primary.code if self.primary else None

    @property
    def witness_index(self) -> Optional[int]:
        return self.primary.witness_index if self.primary else None

    def raise_for(self) -> None:
        """Raise the primary violation, code and witness attached; a
        PASS verdict returns quietly."""
        primary = self.primary
        if primary is not None:
            raise SpecificationViolation(primary.describe(), violation=primary)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "events": self.events,
            "rules": list(self.rules),
            "soundness": SOUNDNESS,
            "violations": [violation.to_dict() for violation in self.violations],
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Canonical JSON: key-sorted, time-free, byte-stable per trace."""
        if indent is None:
            return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


# ----------------------------------------------------------------------
# Incremental rules
# ----------------------------------------------------------------------


class TraceRule:
    """One registered rule, fed the trace event by event.

    ``feed`` returns the rule's violation the first time the prefix
    ``trace[0..index]`` violates it (the engine then retires the rule, so
    the reported witness is the minimal one); ``finish`` reports
    violations only a completed run can exhibit.
    """

    code: str = ""

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        return None

    def finish(self, length: int) -> Optional[Violation]:
        return None

    def _violation(self, index: int, message: str) -> Violation:
        return Violation(self.code, index, message)


class SelfInclusionRule(TraceRule):
    """Section 3.1: every view delivered to p includes p."""

    code = "VS-SELF-INCL"

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        if isinstance(event, (ViewEvent, MbrshpViewEvent)):
            if event.proc not in event.view.members:
                return self._violation(
                    index,
                    f"Self Inclusion: {event.proc} received {event.view} without itself",
                )
        return None


class MonotonicityRule(TraceRule):
    """Section 3.1: view identifiers at each process strictly increase."""

    code = "VS-MONO"

    def __init__(self) -> None:
        self._last: Dict[Tuple[ProcessId, type], View] = {}

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        if isinstance(event, (ViewEvent, MbrshpViewEvent)):
            key = (event.proc, type(event))
            previous = self._last.get(key)
            if previous is not None and not previous.vid < event.view.vid:
                return self._violation(
                    index,
                    f"Local Monotonicity: {event.proc} got {event.view.vid!r} "
                    f"after {previous.vid!r}",
                )
            self._last[key] = event.view
        return None


class SelfDeliveryRule(TraceRule):
    """Figure 7: before each view change, p delivered everything it sent."""

    code = "VS-SELF-DLV"

    def __init__(self) -> None:
        self._sent: Dict[ProcessId, int] = defaultdict(int)
        self._self_delivered: Dict[ProcessId, int] = defaultdict(int)

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        if isinstance(event, CrashEvent):
            # messages lost to the crash are exempt (Section 8)
            self._sent[event.proc] = 0
            self._self_delivered[event.proc] = 0
        elif isinstance(event, SendEvent):
            self._sent[event.proc] += 1
        elif isinstance(event, DeliverEvent) and event.sender == event.proc:
            self._self_delivered[event.proc] += 1
        elif isinstance(event, ViewEvent):
            p = event.proc
            if self._sent[p] != self._self_delivered[p]:
                return self._violation(
                    index,
                    f"Self Delivery: {p} moved to {event.view} with "
                    f"{self._sent[p]} sent but {self._self_delivered[p]} "
                    f"self-delivered",
                )
            self._sent[p] = 0
            self._self_delivered[p] = 0
        return None


class VirtualSynchronyRule(TraceRule):
    """Section 4.1: co-movers deliver the same messages in the old view.

    With gap-free FIFO per sender, "the same set" reduces to the same
    per-sender delivery counts at the moment of leaving the old view; the
    violation is witnessed at the second mover's view event.
    """

    code = "VS-VSYNC"

    def __init__(self) -> None:
        self._agreed: Dict[Tuple[View, View], Tuple[Dict[ProcessId, int], ProcessId]] = {}
        self._counts: Dict[ProcessId, Dict[ProcessId, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._current: Dict[ProcessId, View] = {}

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        if isinstance(event, RecoverEvent):
            # Section 8: restart in the initial view with empty history.
            self._counts[event.proc] = defaultdict(int)
            self._current[event.proc] = initial_view(event.proc)
        elif isinstance(event, DeliverEvent):
            self._counts[event.proc][event.sender] += 1
        elif isinstance(event, ViewEvent):
            p = event.proc
            old = self._current.get(p, initial_view(p))
            vector = dict(self._counts[p])
            key = (old, event.view)
            if key in self._agreed:
                expected, witness = self._agreed[key]
                if expected != vector:
                    return self._violation(
                        index,
                        f"Virtual Synchrony: {p} left {old} for {event.view} having "
                        f"delivered {vector}, but {witness} delivered {expected}",
                    )
            else:
                self._agreed[key] = (vector, p)
            self._counts[p] = defaultdict(int)
            self._current[p] = event.view
        return None


class TransSetRule(TraceRule):
    """Property 4.1: the decidable-from-the-trace transitional-set laws.

    For every delivery of v' at p from previous view v, with set T_p:
    (a) p is in T_p; (b) T_p is within v.set & v'.set; (c) if q also
    delivers v' (from view u), then q is in T_p iff u == v; (d) two
    deliverers of v' from the same previous view report identical T.

    Pairwise conditions are checked when the *second* member of the pair
    arrives, so every violation is witnessed at the earliest event whose
    prefix already violates the property - the previous batch-mode
    checker grouped by view and could report a later event first.
    """

    code = "VS-TRANS-SET"

    def __init__(self) -> None:
        self._current: Dict[ProcessId, View] = {}
        # arrival-ordered (proc, previous view, T) per new view
        self._arrivals: Dict[View, List[Tuple[ProcessId, View, FrozenSet[ProcessId]]]] = {}

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        if isinstance(event, RecoverEvent):
            self._current[event.proc] = initial_view(event.proc)  # Section 8
            return None
        if not isinstance(event, ViewEvent):
            return None
        p = event.proc
        old = self._current.get(p, initial_view(p))
        new_view = event.view
        T = event.transitional
        if p not in T:
            return self._violation(
                index, f"Transitional Set: {p} not in its own T for {new_view}"
            )
        if not T <= (old.members & new_view.members):
            return self._violation(
                index,
                f"Transitional Set: T of {p} for {new_view} is not within "
                f"{old} intersect {new_view}",
            )
        for q, q_old, q_T in self._arrivals.get(new_view, ()):
            if q_old == old and q_T != T:
                return self._violation(
                    index,
                    f"Transitional Set: deliverers of {new_view} from {old} "
                    f"disagree: {sorted(q_T)} vs {sorted(T)}",
                )
            moved_with = q_old == old
            if q in (old.members & new_view.members) and moved_with != (q in T):
                return self._violation(
                    index,
                    f"Transitional Set: {q} moved to {new_view} from "
                    f"{q_old} but {p} (from {old}) "
                    f"{'included' if q in T else 'excluded'} it",
                )
            if p in (q_old.members & new_view.members) and moved_with != (p in q_T):
                return self._violation(
                    index,
                    f"Transitional Set: {p} moved to {new_view} from "
                    f"{old} but {q} (from {q_old}) "
                    f"{'included' if p in q_T else 'excluded'} it",
                )
        self._arrivals.setdefault(new_view, []).append((p, old, T))
        self._current[p] = new_view
        return None


class SpecRefinementRule(TraceRule):
    """Trace inclusion in WV_RFIFO + VS_RFIFO + SELF (Figures 4, 5, 7)."""

    code = "VS-SPEC-REFINE"

    def __init__(self, processes: Tuple[ProcessId, ...]) -> None:
        self._spec = FullSafetySpec(processes)

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        try:
            if isinstance(event, SendEvent):
                self._spec.apply(Action("send", (event.proc, event.payload)))
            elif isinstance(event, DeliverEvent):
                self._spec.apply(
                    Action("deliver", (event.proc, event.sender, event.payload))
                )
            elif isinstance(event, ViewEvent):
                infer_set_cut(self._spec, event.proc, event.view)
                self._spec.apply(
                    Action("view", (event.proc, event.view, event.transitional))
                )
            elif isinstance(event, RecoverEvent):
                reset_recovered_process(self._spec, event.proc)
        except ActionNotEnabled as exc:
            return self._violation(
                index, f"trace not accepted by {type(self._spec).__name__}: {exc}"
            )
        return None


class MbrshpConformanceRule(TraceRule):
    """Figure 2: the membership notices are a behaviour of MBRSHP."""

    code = "MBRSHP-CONF"

    def __init__(self, processes: Iterable[ProcessId]) -> None:
        procs = sorted(set(processes))
        self._spec = MbrshpSpec(procs) if procs else None

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        if self._spec is None:
            return None
        try:
            if isinstance(event, MbrshpStartChangeEvent):
                self._spec.apply(
                    Action(
                        "mbrshp.start_change",
                        (event.proc, event.cid, frozenset(event.members)),
                    )
                )
            elif isinstance(event, MbrshpViewEvent):
                self._spec.apply(Action("mbrshp.view", (event.proc, event.view)))
            elif isinstance(event, CrashEvent):
                self._spec.apply(Action("crash", (event.proc,)))
            elif isinstance(event, RecoverEvent):
                self._spec.apply(Action("recover", (event.proc,)))
        except ActionNotEnabled as exc:
            return self._violation(index, f"MBRSHP conformance (Figure 2): {exc}")
        return None


class ServerForkRule(TraceRule):
    """Section 8 fault domain: one view identifier denotes one view.

    A membership server recovering with forgotten state can re-form a
    view under an identifier it already used - a *fork*: two different
    views share a ``ViewId``.  The rule indexes every view observation
    (formations and deliveries alike) by identifier; any two bearing the
    same identifier must be the same view triple.  Order-insensitive,
    hence sound under arbitrary notice-delivery interleavings.
    """

    code = "MBRSHP-SRV-FORK"

    def __init__(self) -> None:
        self._by_vid: Dict[Any, View] = {}

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        if isinstance(event, (ViewEvent, MbrshpViewEvent, MbrshpFormEvent)):
            view = event.view
            first = self._by_vid.setdefault(view.vid, view)
            if first != view:
                return self._violation(
                    index,
                    f"Server fork: {view.vid!r} denotes both {first} and {view}",
                )
        return None


class ServerCounterMonotonicityRule(TraceRule):
    """Section 8 fault domain: an origin's formed counters strictly increase.

    Reads only :class:`MbrshpFormEvent` records *emitted by the origin
    server itself* (``event.proc == view.vid.origin``).  One server's
    formations are sequential and recorded at formation time, so their
    trace order is its causal order - unlike client-side deliveries,
    whose interleaving across processes is racy.  A server restored from
    the durable watermark store always resumes above its own highest
    issued counter; a recovery that *forgot* the watermark re-forms with
    a stale counter and fails here, at the forgery's formation event.

    Honest limit: a forgetful server that is not the minimum of its
    component (hence not the origin) can drag a component's counter down
    only if every peer's proposal watermark is also stale; the
    one-server recovery scenario this PR mechanises always makes the
    recovering server its own component's origin.
    """

    code = "MBRSHP-SRV-MONO"

    def __init__(self) -> None:
        self._issued: Dict[str, int] = {}

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        if not isinstance(event, MbrshpFormEvent):
            return None
        vid = event.view.vid
        if event.proc != vid.origin:
            return None  # co-former: its order is the origin's business
        high = self._issued.get(vid.origin)
        if high is not None and vid.counter <= high:
            return self._violation(
                index,
                f"Server counter regression: origin {vid.origin} formed "
                f"{event.view} with counter {vid.counter} after issuing "
                f"counter {high}",
            )
        self._issued[vid.origin] = vid.counter
        return None


class LivenessRule(TraceRule):
    """Property 4.2 for a stabilised run; witnessed at len(trace).

    No prefix violates liveness - only the completed run does - so the
    witness index is the trace length, by the earliest-prefix convention.
    """

    code = "VS-LIVE"

    def __init__(self, final_view: View) -> None:
        self._final = final_view
        self._current: Dict[ProcessId, View] = {}
        self._delivered_final: set = set()
        self._sent: Dict[ProcessId, List[Any]] = {}
        self._got: Dict[Tuple[ProcessId, ProcessId], List[Any]] = {}

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        p = event.proc
        if isinstance(event, RecoverEvent):
            self._current[p] = initial_view(p)
        elif isinstance(event, ViewEvent):
            self._current[p] = event.view
            if event.view == self._final:
                self._delivered_final.add(p)
        elif isinstance(event, SendEvent) and self._current.get(p) == self._final:
            self._sent.setdefault(p, []).append(event.payload)
        elif isinstance(event, DeliverEvent) and self._current.get(p) == self._final:
            self._got.setdefault((p, event.sender), []).append(event.payload)
        return None

    def finish(self, length: int) -> Optional[Violation]:
        members = sorted(self._final.members)
        for p in members:
            if p not in self._delivered_final:
                return self._violation(
                    length,
                    f"Liveness: {p} never delivered the stable view {self._final}",
                )
        for p in members:
            payloads = self._sent.get(p, [])
            for q in members:
                got = self._got.get((q, p), [])
                if got != payloads:
                    return self._violation(
                        length,
                        f"Liveness: {q} delivered {got} from {p} in {self._final}, "
                        f"expected {payloads}",
                    )
        return None


class GoldenSkeletonRule(TraceRule):
    """Golden-trace mode: the observed skeleton equals the recorded one."""

    code = "VS-SKEL"

    def __init__(self, golden: TraceSkeleton) -> None:
        self._golden = golden
        self._builder = SkeletonBuilder()

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        self._builder.feed(index, event)
        return None

    def finish(self, length: int) -> Optional[Violation]:
        found = skeleton_divergence(self._golden, self._builder, length)
        if found is not None:
            index, message = found
            return self._violation(index, f"Golden skeleton: {message}")
        return None


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def _build_rules(
    codes: Tuple[str, ...],
    trace: GcsTrace,
    processes: Optional[Iterable[ProcessId]],
    final_view: Optional[View],
    golden: Optional[TraceSkeleton],
) -> List[TraceRule]:
    spec_procs = (
        tuple(processes)
        if processes is not None
        else tuple(sorted(trace.processes()))
    )
    factories = {
        "VS-SELF-INCL": SelfInclusionRule,
        "VS-MONO": MonotonicityRule,
        "VS-SELF-DLV": SelfDeliveryRule,
        "VS-VSYNC": VirtualSynchronyRule,
        "VS-TRANS-SET": TransSetRule,
        "VS-SPEC-REFINE": lambda: SpecRefinementRule(spec_procs),
        "MBRSHP-CONF": lambda: MbrshpConformanceRule(
            mbrshp_processes(trace, processes)
        ),
        "MBRSHP-SRV-FORK": ServerForkRule,
        "MBRSHP-SRV-MONO": ServerCounterMonotonicityRule,
        "VS-LIVE": lambda: LivenessRule(final_view),
        "VS-SKEL": lambda: GoldenSkeletonRule(golden),
    }
    return [factories[code]() for code in codes]


def mbrshp_processes(
    trace: GcsTrace, processes: Optional[Iterable[ProcessId]]
) -> FrozenSet[ProcessId]:
    """The process universe for MBRSHP conformance (Figure 2 replay)."""
    if processes is not None:
        return frozenset(processes)
    procs = set(trace.processes())
    for event in trace.of_type(ViewEvent, MbrshpViewEvent):
        procs |= set(event.view.members)
    return frozenset(procs)


class VerdictMonitor:
    """The verdict engine held open over a growing trace: the rules and a
    read cursor.  Auditing a live run costs once per event, not once per
    audit, and the trace's writers pay nothing (the monitor pulls).

    ``trace`` is read at construction only to infer the process universe
    when ``processes`` is None; an online caller must pass it.
    """

    def __init__(
        self,
        trace: GcsTrace,
        processes: Optional[Iterable[ProcessId]] = None,
        *,
        final_view: Optional[View] = None,
        golden: Optional[TraceSkeleton] = None,
        include: Optional[Iterable[str]] = None,
    ) -> None:
        codes = list(include) if include is not None else list(DEFAULT_CODES)
        if final_view is not None and "VS-LIVE" not in codes:
            codes.append("VS-LIVE")
        if golden is not None and "VS-SKEL" not in codes:
            codes.append("VS-SKEL")
        for code in codes:
            info = REGISTRY.get(code)
            if info is None:
                raise ValueError(f"unknown violation code {code!r}")
            if not info.trace_rule:
                raise ValueError(f"{code} is a runtime finding, not a trace rule")
        if "VS-LIVE" in codes and final_view is None:
            raise ValueError("VS-LIVE requires final_view")
        if "VS-SKEL" in codes and golden is None:
            raise ValueError("VS-SKEL requires a golden skeleton")
        self._codes = tuple(sorted(codes))
        self.cursor = 0  # events fed so far
        self._active = _build_rules(tuple(codes), trace, processes, final_view, golden)
        self._violations: List[Violation] = []

    def advance(self, trace: GcsTrace) -> "VerdictMonitor":
        """Feed every event past the cursor; a rule retires at its first
        violation, so its witness is minimal.  Returns the monitor."""
        start, self.cursor = self.cursor, len(trace)
        active = self._active
        for index, event in enumerate(trace.events[start:], start):
            if not active:
                break
            survivors = []
            for rule in active:
                violation = rule.feed(index, event)
                if violation is None:
                    survivors.append(rule)
                else:
                    self._violations.append(violation)  # the rule retires
            active = survivors
        self._active = active
        return self

    def verdict(self) -> Verdict:
        """The verdict on the events read so far (end-of-run rules judge
        the prefix as a completed run); rule state is left untouched."""
        violations = list(self._violations)
        for rule in self._active:
            violation = rule.finish(self.cursor)
            if violation is not None:
                violations.append(violation)
        violations.sort(key=lambda v: violation_sort_key(v.code, v.witness_index))
        return Verdict(
            status="PASS" if not violations else "FAIL",
            events=self.cursor,
            rules=self._codes,
            violations=tuple(violations),
        )


def run_verdict(
    trace: GcsTrace,
    processes: Optional[Iterable[ProcessId]] = None,
    *,
    final_view: Optional[View] = None,
    golden: Optional[TraceSkeleton] = None,
    include: Optional[Iterable[str]] = None,
) -> Verdict:
    """One pass of every selected rule over ``trace``; the full verdict.

    ``include`` selects the rule set (default :data:`DEFAULT_CODES`);
    giving ``final_view`` adds VS-LIVE and ``golden`` adds VS-SKEL.  Each
    rule contributes at most one violation - its earliest - and the
    result is deterministically ordered and byte-stable under
    :meth:`Verdict.to_json`.
    """
    monitor = VerdictMonitor(
        trace, processes, final_view=final_view, golden=golden, include=include
    )
    return monitor.advance(trace).verdict()


__all__ = [
    "GoldenSkeletonRule",
    "LivenessRule",
    "MbrshpConformanceRule",
    "MonotonicityRule",
    "SOUNDNESS",
    "SelfDeliveryRule",
    "SelfInclusionRule",
    "ServerCounterMonotonicityRule",
    "ServerForkRule",
    "SpecRefinementRule",
    "TraceRule",
    "TransSetRule",
    "Verdict",
    "VerdictMonitor",
    "VirtualSynchronyRule",
    "Violation",
    "run_verdict",
]
