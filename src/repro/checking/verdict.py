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
construction.  Self Inclusion, Local Monotonicity, Self Delivery and
Virtual Synchrony have no rule of their own: they are conjuncts of the
``view`` preconditions of the replayed specifications, and a replay
that refuses a step names the conjunct (:class:`SpecReplayRule`).
:class:`VerdictMonitor` holds the rules open with a read cursor, so a
live run is audited in one pass however often it is asked;
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
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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
from repro.errors import SpecificationViolation
from repro.ioa import Action, Automaton
from repro.spec.mbrshp import MbrshpSpec
from repro.spec.self_delivery import SelfDeliverySpec
from repro.spec.vs_rfifo import FullSafetySpec, VsRfifoSpec
from repro.spec.wv_rfifo import WvRfifoSpec
from repro.types import VID_ZERO, ProcessId, View, ViewId, initial_view

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
        return asdict(self)


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


class SpecReplayRule(TraceRule):
    """A specification automaton replayed over the trace, step by step.

    The replay is the one statement of every property a conjunct of its
    preconditions names: ``CONJUNCTS`` maps an action to named conjuncts
    (spec predicates over the action's parameters) and the code each
    states, and a refusal none of them explains is ``code``'s - the trace
    is not a behaviour of the spec.  The failing conjuncts are worked out
    only once the spec refuses a step, so an accepted step costs the
    plain replay.

    ``selected`` decides what is reported, not what replays: a refused
    step none of whose codes is selected is taken anyway (its effects
    run) and the replay goes on; otherwise the code that sorts first
    under :func:`violation_sort_key` is reported and the replay retires.
    """

    CONJUNCTS: Dict[str, Tuple[Tuple[Callable[..., bool], str], ...]] = {}
    WATCHED: Tuple[str, ...] = ()  # codes a subclass finds beside the conjuncts
    label = ""  # message prefix of a refusal reported as ``code``

    def __init__(self, spec: Automaton, selected: Set[str]) -> None:
        self._spec = spec
        self._selected = selected  # shared by the replays of one verdict

    @classmethod
    def codes(cls) -> FrozenSet[str]:
        """Every code this replay can report."""
        return frozenset(
            [cls.code, *cls.WATCHED]
            + [code for named in cls.CONJUNCTS.values() for _holds, code in named]
        )

    def _step(
        self, index: int, action: Action, found: Optional[Dict[str, str]] = None
    ) -> Optional[Violation]:
        """Take ``action``; ``found`` holds the codes (with messages) that
        already fail at this step for another reason."""
        spec = self._spec
        if not spec.precondition(action):
            found = found or {}
            refusal = f"{spec.name}: {action!r} is not enabled"
            for holds, code in self.CONJUNCTS.get(action.name, ()):
                if not holds(spec, *action.params):
                    prefix = REGISTRY[code].title.partition(":")[0]
                    found.setdefault(code, f"{prefix}: {refusal}")
            found[self.code] = f"{self.label}: {refusal}"
        # Refused or not, the step is taken (it may go unreported), so the
        # replayed specs must stay non-strict.
        spec.apply_enabled(action)
        if not found:
            return None
        reported = [code for code in found if code in self._selected]
        if not reported:
            return None
        code = min(reported, key=lambda code: violation_sort_key(code, index))
        # Retiring, this replay stops watching its half of each code it
        # states, so the other replay may no longer report that code either:
        # a later witness of its half need not be the code's earliest.
        self._selected.difference_update(self.codes())
        return Violation(code, index, found[code])


class SpecRefinementRule(SpecReplayRule):
    """Trace inclusion in WV_RFIFO + VS_RFIFO + SELF (Figures 4, 5, 7).

    The conjuncts of their ``view`` precondition state Self Inclusion
    (WV_RFIFO), Virtual Synchrony (the VS_RFIFO cut, Corollary 6.1) and
    Self Delivery (SELF).  A recovered end-point restarts in its initial
    view (:func:`reset_recovered_process`), so two halves live beside the
    replay.  Local Monotonicity is WV_RFIFO's ``v.id > current.id`` held
    against a per-process watermark of the last view identifier, which
    survives recoveries as the membership service's does.  And Self
    Delivery exempts only what a crash loses (Section 8): the reset also
    wipes what p sent and self-delivered between its crash and its
    recovery, so those two counts must match at p's next view.
    """

    code = "VS-SPEC-REFINE"
    label = "trace not accepted by FullSafetySpec"
    CONJUNCTS = {
        "view": (
            (WvRfifoSpec.includes_self, "VS-SELF-INCL"),
            (VsRfifoSpec._pre_view, "VS-VSYNC"),
            (SelfDeliverySpec._pre_view, "VS-SELF-DLV"),
        )
    }
    WATCHED = ("VS-MONO",)

    def __init__(self, processes: Tuple[ProcessId, ...], selected: Set[str]) -> None:
        super().__init__(FullSafetySpec(processes), selected)
        self._last_vid: Dict[ProcessId, ViewId] = {}
        self._down: Set[ProcessId] = set()
        # p's sends less its self-deliveries while down, until its next view
        self._unmatched: Dict[ProcessId, int] = {}

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        if isinstance(event, SendEvent):
            if event.proc in self._down:
                self._unmatched[event.proc] += 1
            return self._step(index, Action("send", (event.proc, event.payload)))
        if isinstance(event, DeliverEvent):
            if event.proc in self._down and event.sender == event.proc:
                self._unmatched[event.proc] -= 1
            return self._step(
                index, Action("deliver", (event.proc, event.sender, event.payload))
            )
        if isinstance(event, ViewEvent):
            return self._view(index, event)
        if isinstance(event, CrashEvent):
            self._down.add(event.proc)
            self._unmatched[event.proc] = 0
        elif isinstance(event, RecoverEvent):
            self._down.discard(event.proc)
            reset_recovered_process(self._spec, event.proc)
        return None

    def _view(self, index: int, event: ViewEvent) -> Optional[Violation]:
        p, view = event.proc, event.view
        found: Dict[str, str] = {}
        last = self._last_vid.get(p, VID_ZERO)
        self._last_vid[p] = view.vid
        if not last < view.vid:
            found["VS-MONO"] = f"Local Monotonicity: {p} got {view.vid!r} after {last!r}"
        unmatched = self._unmatched.pop(p, 0)
        if unmatched:
            found["VS-SELF-DLV"] = (
                f"Self Delivery: {p} moved to {view}, but its sends and "
                f"self-deliveries while crashed differ by {unmatched}"
            )
        if p in self._down:
            self._unmatched[p] = 0
        infer_set_cut(self._spec, p, view)
        return self._step(index, Action("view", (p, view, event.transitional)), found)


class MbrshpConformanceRule(SpecReplayRule):
    """Figure 2: the membership notices are a behaviour of MBRSHP.

    The conjuncts of its ``view`` precondition state Self Inclusion and
    Local Monotonicity for the notices; the service keeps a client's
    last view across the client's crash, so no watermark is needed here.
    """

    code = "MBRSHP-CONF"
    label = "MBRSHP conformance (Figure 2)"
    CONJUNCTS = {
        "mbrshp.view": (
            (MbrshpSpec.includes_self, "VS-SELF-INCL"),
            (MbrshpSpec.advances, "VS-MONO"),
        )
    }

    def __init__(self, processes: Iterable[ProcessId], selected: Set[str]) -> None:
        super().__init__(MbrshpSpec(processes), selected)

    def feed(self, index: int, event: GcsEvent) -> Optional[Violation]:
        if isinstance(event, MbrshpStartChangeEvent):
            action = Action(
                "mbrshp.start_change", (event.proc, event.cid, frozenset(event.members))
            )
        elif isinstance(event, MbrshpViewEvent):
            action = Action("mbrshp.view", (event.proc, event.view))
        elif isinstance(event, CrashEvent):
            action = Action("crash", (event.proc,))
        elif isinstance(event, RecoverEvent):
            action = Action("recover", (event.proc,))
        else:
            return None
        return self._step(index, action)


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
    factories = {
        "VS-TRANS-SET": TransSetRule,
        "MBRSHP-SRV-FORK": ServerForkRule,
        "MBRSHP-SRV-MONO": ServerCounterMonotonicityRule,
        "VS-LIVE": lambda: LivenessRule(final_view),
        "VS-SKEL": lambda: GoldenSkeletonRule(golden),
    }
    rules: List[TraceRule] = [factories[code]() for code in codes if code in factories]
    selected = set(codes)
    procs = tuple(sorted(trace.processes())) if processes is None else tuple(processes)
    if selected & SpecRefinementRule.codes():
        rules.append(SpecRefinementRule(procs, selected))
    if selected & MbrshpConformanceRule.codes():
        # Figure 2's universe: an inferred one takes in every view's members.
        universe = set(procs)
        if processes is None:
            for event in trace.of_type(ViewEvent, MbrshpViewEvent):
                universe |= event.view.members
        if universe:
            rules.append(MbrshpConformanceRule(frozenset(universe), selected))
    return rules


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
    "SOUNDNESS",
    "ServerCounterMonotonicityRule",
    "ServerForkRule",
    "SpecRefinementRule",
    "TraceRule",
    "TransSetRule",
    "Verdict",
    "VerdictMonitor",
    "Violation",
    "run_verdict",
]
