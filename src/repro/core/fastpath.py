"""Steady-state direct-dispatch lane for the within-view multicast loop.

Between view changes the algorithm stack is a pure FIFO pipeline: an
application ``send`` enables exactly one ``co_rfifo.send`` (the
:class:`~repro.core.messages.AppMsg` to the view peers; the view's first
one is preceded by the view's ``ViewMsg``) followed by exactly one
self-``deliver``, and an arriving ``AppMsg`` enables exactly one
``deliver``.  Running that loop through the general engine - the
candidate enumeration and enabled-set maintenance of
:mod:`repro.ioa.automaton` - is wasted work, because in the steady state
there is no precondition ambiguity to resolve (Section 4-5 of the
paper; the same observation powers the throughput of production
virtual-synchrony stacks).

:class:`FastLane` compiles the loop to straight-line Python.  It is a
*peephole over the same state*: every mutation it performs is exactly
the effect the corresponding automaton actions would have performed, in
the same order, so the endpoint's state after a fast-lane operation is
bit-identical to what the general engine would have produced and the
safety proofs carry over unchanged.  The general engine remains the
differential oracle (``tests/core/test_fastpath_differential.py`` runs
the same seeded scenarios with the lane on and off and compares the
resulting :class:`~repro.checking.events.GcsTrace` objects).

Eligibility and drain-back
--------------------------

The lane engages only while the endpoint is provably quiescent in an
installed, stable view:

* the endpoint is a plain :class:`~repro.core.gcs_endpoint.GcsEndpoint`
  (no subclass overrides), not crashed, not in strict ownership-checking
  mode, with a stock forwarding strategy and acknowledgement GC off;
* no view change is in progress (``start_change is None``, block status
  ``UNBLOCKED``, ``mbrshp_view == current_view``);
* its reliable set covers the membership;
* the general engine reports **no enabled actions** - the catch-all that
  makes the previous conditions sufficient rather than merely hopeful.

The endpoint's own ``view_msg`` need not be out: the marker is lazy
(it leaves just ahead of the view's first ``AppMsg``), so a member that
has not yet sent in its view takes the lane for receives, and its first
send replays ``co_rfifo.send(view_msg)`` before the ``AppMsg``, as the
general drain would.

Engagement is cached against the automaton's monotone
``state_version``.  Any input that takes the general path (a membership
notice, a sync or forwarded message, a crash, a test poking state) bumps
the version, which *is* the drain-back: the next operation revalidates
from scratch, and until the conditions hold again every input flows
through the general engine.  The lane keeps no end-point state: besides
that version it holds only the view's peers, a set it builds itself,
and every operation reads the end-point's own variables (its buffers as
``msgs[q][view]``, calling ``buffer`` only to create a missing one).  So
there is nothing to flush or to go stale - handing control back is free
and cannot lose messages - and rule R6's ``lane-state`` check
(:mod:`repro.analysis.fastlane`) keeps it so.  The lane's outputs are
the runner's own: its wire sends go through the one ``co_rfifo.send``
output, past the overlay's wire interceptor, and its deliveries are
recorded as the general drain records them.

The lane advances the version itself after each fast operation (through
:meth:`~repro.ioa.automaton.Automaton.touch` semantics), keeping
composition enabled-set caches honest if the general engine resumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Tuple

from repro.checking.events import SendEvent
from repro.core.forwarding import MinCopiesStrategy, NoForwarding, SimpleStrategy
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import AppMsg, ViewMsg
from repro.spec.client import BlockStatus
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runner import EndpointRunner

#: Strategies known to propose no forwarding while no view change is in
#: progress (their candidates are gated on the endpoint's own sync
#: message, which exists only under a ``start_change``).  An unknown,
#: user-supplied strategy disqualifies the lane: the general engine
#: serves it, slower but with its invariants enforced.
_QUIESCENT_STRATEGIES = (NoForwarding, SimpleStrategy, MinCopiesStrategy)

#: The automaton actions each fast-lane operation claims to replay, in
#: order.  Rule R6 of the static verifier (``repro.analysis.fastlane``)
#: checks the replay bodies against the union of the write-sets of these
#: actions' compiled transition chains, so fastpath drift - a lane write
#: the general engine would not perform - is a lint failure, not just a
#: differential-test failure.  Every ``try_*`` method must have an entry.
REPLAYED_ACTIONS: Dict[str, Tuple[str, ...]] = {
    "try_send": ("send", "co_rfifo.send", "deliver"),
    "try_receive": ("co_rfifo.deliver", "deliver"),
}


class FastLane:
    """Direct dispatch of the steady-state send/deliver loop.

    Owned by one :class:`~repro.core.runner.EndpointRunner`; both
    ``try_send`` and ``try_receive`` return ``False`` whenever the
    current state is not (or can no longer be proven) steady, in which
    case the caller must run the operation through the general engine.
    The lane keeps no end-point state: the version it last proved
    steadiness at, and the current view's peers, are all it holds.
    """

    __slots__ = ("runner", "endpoint", "_version", "_peers")

    def __init__(self, runner: "EndpointRunner") -> None:
        self.runner = runner
        self.endpoint = runner.endpoint
        # Engagement cache: valid while the endpoint's state_version
        # still equals _version.  -1 never matches, forcing an initial
        # revalidation.
        self._version = -1
        self._peers: FrozenSet[ProcessId] = frozenset()

    @property
    def structural_ok(self) -> bool:
        """Constructor-fixed eligibility: endpoint shape, options, strategy."""
        ep = self.endpoint
        return (
            type(ep) is GcsEndpoint
            and not ep.strict
            and ep.ack_gc_interval is None
            and type(ep.forwarding) in _QUIESCENT_STRATEGIES
        )

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------

    def _revalidate(self) -> bool:
        """Re-prove steadiness after a general-path interlude."""
        ep = self.endpoint
        if ep.crashed or ep.start_change is not None:
            return False
        if ep.block_status is not BlockStatus.UNBLOCKED:
            return False
        view = ep.current_view
        if ep.mbrshp_view != view:
            return False
        if ep.reliable_set != view.members:
            return False
        # The catch-all: whatever else might be pending (a sync, an ack,
        # a forward, an undelivered backlog), the general engine knows.
        if ep.enabled_actions():
            return False
        self._peers = frozenset(view.members - {ep.pid})
        self._version = ep._state_version
        return True

    # ------------------------------------------------------------------
    # the two steady-state operations
    # ------------------------------------------------------------------

    def try_send(self, payload: Any) -> bool:
        """``send -> co_rfifo.send -> deliver`` as straight-line code.

        Replays, in order, the effects the general drain performs for an
        application send in the steady state: append to the own buffer
        (``_eff_send``), advance ``last_sent`` and put the ``AppMsg`` on
        the wire (``_eff_co_rfifo_send``), then self-deliver
        (``_eff_deliver``).  Quiescence guarantees ``dlvrd(p) ==
        last_sent`` on entry, so the new message is always the next (and
        only) deliverable one.  The view's first send puts the view's
        marker on the wire first (``_eff_co_rfifo_send`` of the
        ``ViewMsg``): the revalidated reliable set covers the view and a
        message now waits, so the general drain would send it there.
        """
        ep = self.endpoint
        if ep._state_version != self._version and not self._revalidate():
            return False
        runner = self.runner
        pid = ep.pid
        view = ep.current_view
        runner.trace.append(SendEvent(runner._clock(), pid, payload))
        try:
            log = ep.msgs[pid][view]
        except KeyError:
            log = ep.buffer(pid, view)
        log.append(payload)
        if ep.view_msg.get(pid) is not view and ep.view_msg_of(pid) != view:
            ep.view_msg[pid] = view
            runner._send(self._peers, ViewMsg(view))
        index = ep.last_sent + 1
        ep.last_sent = index
        ep.last_dlvrd[pid] = index
        self._version = ep.touch()  # keep enabled-set caches honest
        runner._send(self._peers, AppMsg(payload, history_view=view, history_index=index))
        runner._on_deliver(pid, payload)
        return True

    def try_receive(self, src: ProcessId, message: Any) -> bool:
        """``co_rfifo.deliver -> deliver`` as straight-line code.

        Handles exactly the steady-state shape: an original ``AppMsg``
        from a view peer whose ``view_msg`` announces the current view,
        arriving in FIFO order with no backlog (``rcvd == dlvrd``).
        Everything else - view/sync/forwarded messages, holes, peers
        mid-transition - falls back to the general engine.
        """
        # Type check before revalidation: only an AppMsg can ever take
        # the lane, and during a reconfiguration the traffic is view and
        # sync messages - each of which would otherwise pay a full
        # steadiness re-proof (including the enabled_actions catch-all)
        # just to be rejected here anyway.
        if type(message) is not AppMsg:
            return False
        ep = self.endpoint
        if ep._state_version != self._version and not self._revalidate():
            return False
        if src not in self._peers:
            return False
        view = ep.current_view
        announced = ep.view_msg.get(src)
        if announced is not view and announced != view:
            return False
        index = ep.last_rcvd.get(src, 0) + 1
        if index != ep.last_dlvrd.get(src, 0) + 1:
            return False  # backlog or hole: not the steady-state shape
        # Indexed by the announcing view object, as _eff_co_rfifo_deliver
        # indexes it (view_msg_of(q)): on a socket the peer's views are
        # decoded objects of their own, equal to the current view but not
        # it, and a key found by identity costs no View comparison.
        try:
            log = ep.msgs[src][announced]
        except KeyError:
            log = ep.buffer(src, announced)
        payload = message.payload
        log.put(index, payload)
        ep.last_rcvd[src] = index
        ep.last_dlvrd[src] = index
        self._version = ep.touch()  # keep enabled-set caches honest
        self.runner._on_deliver(src, payload)
        return True

    def __repr__(self) -> str:
        engaged = self.endpoint.state_version == self._version
        return f"<FastLane {self.endpoint.pid} {'engaged' if engaged else 'idle'}>"


__all__ = ["FastLane", "REPLAYED_ACTIONS"]
