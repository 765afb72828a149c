"""Trace checkers for the specified safety and liveness properties.

Each checker consumes a :class:`~repro.checking.events.GcsTrace` (the
externally observable behaviour of a run, from any execution substrate)
and raises :class:`~repro.errors.SpecificationViolation` on the
**earliest** violation.  Since the verdict engine
(:mod:`repro.checking.verdict`) these functions are thin wrappers over
its incremental rules: each rule consumes the trace in event order and
retires at its first violation, so the reported witness is the minimal
index whose prefix already violates the property.  (The previous
batch-mode transitional-set checker grouped deliveries by view and could
report a later event than the earliest violation; the rule form fixes
that.)

``check_all_safety`` bundles the safety battery and
``check_deployment_trace`` the full audit; both return the primary
(earliest, deterministically tie-broken) violation of a single
engine pass.

The within-view / virtual-synchrony / self-delivery checks work by
*replaying* the trace through the executable specification automata of
:mod:`repro.spec` - the runtime analogue of the paper's trace-inclusion
theorems.  The internal spec actions that replay must infer (``set_cut``)
are chosen the only way that keeps the spec step enabled, mirroring the
refinement's action correspondence (Lemma 6.2).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.checking.codes import DEFAULT_CODES, SAFETY_CODES
from repro.checking.events import (
    DeliverEvent,
    GcsTrace,
    RecoverEvent,
    SendEvent,
    ViewEvent,
)
from repro.checking.refinement import TraceSkeleton
from repro.checking.verdict import (
    GoldenSkeletonRule,
    LivenessRule,
    MbrshpConformanceRule,
    MonotonicityRule,
    SelfDeliveryRule,
    SelfInclusionRule,
    SpecRefinementRule,
    TraceRule,
    TransSetRule,
    Verdict,
    VirtualSynchronyRule,
    first_violation,
    infer_set_cut,
    mbrshp_processes,
    reset_recovered_process,
    run_verdict,
)
from repro.errors import ActionNotEnabled, SpecificationViolation
from repro.ioa import Action
from repro.spec.vs_rfifo import FullSafetySpec
from repro.spec.wv_rfifo import WvRfifoSpec
from repro.types import ProcessId, View


def _check_rule(trace: GcsTrace, rule: TraceRule) -> None:
    violation = first_violation(trace, rule)
    if violation is not None:
        raise SpecificationViolation(violation.message)


def _raise_primary(verdict: Verdict) -> None:
    if not verdict.ok:
        raise SpecificationViolation(verdict.primary.message)


# ----------------------------------------------------------------------
# Membership-facing basics
# ----------------------------------------------------------------------


def check_self_inclusion(trace: GcsTrace) -> None:
    """Every view delivered to p includes p (Section 3.1)."""
    _check_rule(trace, SelfInclusionRule())


def check_local_monotonicity(trace: GcsTrace) -> None:
    """View identifiers delivered to each p strictly increase (Section 3.1)."""
    _check_rule(trace, MonotonicityRule())


def check_mbrshp_conformance(
    trace: GcsTrace, processes: Optional[Iterable[ProcessId]] = None
) -> None:
    """The membership notices in the trace are a behaviour of Figure 2.

    Replays every ``start_change`` / ``view`` notice (plus crashes and
    recoveries) through a fresh :class:`~repro.spec.mbrshp.MbrshpSpec`:
    any notice whose precondition is false - a non-increasing cid, a view
    without a preceding start_change, a stale startId binding, members
    outside the suggested set - fails the check.  This is how deployments
    whose views come from real membership servers (asyncio, TCP) are held
    to the same standard as the simulator's.
    """
    _check_rule(trace, MbrshpConformanceRule(mbrshp_processes(trace, processes)))


# ----------------------------------------------------------------------
# Replay through the executable specification stack
# ----------------------------------------------------------------------


def replay_into_spec(trace: GcsTrace, spec: WvRfifoSpec) -> None:
    """Replay external GCS events through a WV_RFIFO-family spec automaton.

    Raises if any event corresponds to a disabled spec step, i.e. if the
    trace is not a trace of the specification.
    """
    infer_cuts = isinstance(spec, FullSafetySpec) or hasattr(spec, "cut")
    for event in trace:
        try:
            if isinstance(event, SendEvent):
                spec.apply(Action("send", (event.proc, event.payload)))
            elif isinstance(event, DeliverEvent):
                spec.apply(Action("deliver", (event.proc, event.sender, event.payload)))
            elif isinstance(event, ViewEvent):
                if infer_cuts:
                    infer_set_cut(spec, event)
                spec.apply(Action("view", (event.proc, event.view, event.transitional)))
            elif isinstance(event, RecoverEvent):
                reset_recovered_process(spec, event.proc)
        except ActionNotEnabled as exc:
            raise SpecificationViolation(
                f"trace not accepted by {type(spec).__name__}: {exc}"
            ) from exc


def check_safety_spec(trace: GcsTrace, processes: Optional[Iterable[ProcessId]] = None) -> None:
    """Trace inclusion in WV_RFIFO + VS_RFIFO + SELF (Figures 4, 5, 7)."""
    procs = tuple(processes) if processes is not None else tuple(sorted(trace.processes()))
    _check_rule(trace, SpecRefinementRule(procs))


# ----------------------------------------------------------------------
# Virtual synchrony, stated directly (redundant with the replay, but a
# useful independent oracle)
# ----------------------------------------------------------------------


def check_virtual_synchrony(trace: GcsTrace) -> None:
    """Processes moving together v -> v' deliver the same messages in v.

    With gap-free FIFO per sender, "the same set" reduces to the same
    per-sender delivery counts at the moment of leaving v.
    """
    _check_rule(trace, VirtualSynchronyRule())


# ----------------------------------------------------------------------
# Transitional sets (Property 4.1), black-box part
# ----------------------------------------------------------------------


def check_transitional_sets(trace: GcsTrace) -> None:
    """The decidable-from-the-trace consequences of Property 4.1.

    For every delivery of v' at p from previous view v, with set T_p:
    (a) p is in T_p; (b) T_p is a subset of v.set & v'.set; (c) if q also
    delivers v' (from view u), then q is in T_p iff u == v; (d) two
    deliverers of v' from the same previous view report identical T.
    """
    _check_rule(trace, TransSetRule())


# ----------------------------------------------------------------------
# Self delivery (direct statement)
# ----------------------------------------------------------------------


def check_self_delivery(trace: GcsTrace) -> None:
    """Before each view change, p delivered everything it sent (Figure 7)."""
    _check_rule(trace, SelfDeliveryRule())


# ----------------------------------------------------------------------
# Liveness (Property 4.2)
# ----------------------------------------------------------------------


def check_liveness(trace: GcsTrace, final_view: View) -> None:
    """Property 4.2 for a stabilised execution.

    Assumes the membership delivered ``final_view`` to all its members
    with no later membership events (the caller arranged this).  Checks
    that every member delivered ``final_view`` through the GCS and that
    every message sent in it was delivered by every member.
    """
    _check_rule(trace, LivenessRule(final_view))


# ----------------------------------------------------------------------
# Golden skeletons (cross-substrate execution equivalence)
# ----------------------------------------------------------------------


def check_golden_skeleton(trace: GcsTrace, golden: TraceSkeleton) -> None:
    """The trace's skeleton equals the recorded golden skeleton."""
    _check_rule(trace, GoldenSkeletonRule(golden))


# ----------------------------------------------------------------------
# The whole battery
# ----------------------------------------------------------------------


def check_all_safety(trace: GcsTrace, processes: Optional[Iterable[ProcessId]] = None) -> None:
    """Run every safety checker above on ``trace`` (one engine pass)."""
    _raise_primary(run_verdict(trace, processes, include=SAFETY_CODES))


def check_deployment_trace(
    trace: GcsTrace,
    processes: Optional[Iterable[ProcessId]] = None,
    *,
    final_view: Optional[View] = None,
    golden: Optional[TraceSkeleton] = None,
) -> None:
    """The post-hoc audit for any deployment's trace, on any substrate.

    Runs the full safety battery plus MBRSHP conformance of the
    membership notices; when the caller knows the run stabilised in
    ``final_view``, also checks liveness (Property 4.2) against it, and
    with a recorded ``golden`` skeleton the run must also refine it.
    """
    _raise_primary(
        run_verdict(
            trace,
            processes,
            final_view=final_view,
            golden=golden,
            include=DEFAULT_CODES,
        )
    )
