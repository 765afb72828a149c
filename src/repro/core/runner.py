"""The end-point driver: one GCS end-point, hosted, on any substrate.

The formal automata of :mod:`repro.core` are nondeterministic machines;
deployments (the discrete-event simulator, the asyncio runtime) need a
deterministic, event-driven component.  :class:`EndpointRunner` closes
the gap: environment inputs are injected through its methods, after which
it *drains* the endpoint - repeatedly executing enabled locally
controlled actions in a fixed priority order until quiescence - and
routes each output action to the appropriate callback.

Because the runner only ever executes enabled actions of the automaton,
every behaviour it produces is a behaviour of the formal algorithm; the
safety proofs carry over verbatim.

Every substrate hosts an end-point the same way, in this one class: the
automaton, what the application saw (``delivered``, ``views``, and the
hooks of :meth:`EndpointRunner.set_app`) and the dispatch of whatever
arrives - a membership notice goes to the MBRSHP input it stands for,
anything else is a CO_RFIFO delivery.  A substrate's own node
(:class:`~repro.net.world.SimNode`, :class:`~repro.runtime.node.GcsNode`)
subclasses the runner and adds only how it is wired to its transport.

Every substrate also hands arrivals over the same way: as a *run*
(:data:`~repro.links.Run`) - a runtime fabric's pump wake-up, the
simulator's arrival instant - which :meth:`EndpointRunner.on_run`
applies inside one *deferred-drain window*
(:meth:`EndpointRunner.hold_drain` / :meth:`EndpointRunner.release_drain`),
as the overlay's sync batches do through
:meth:`EndpointRunner.receive_batch`: each input still takes its usual
method, but its drain is only owed, and closing the window drains once
if any input owed one - none if every input took the fast lane.
CO_RFIFO and MBRSHP inputs are always enabled, so applying a run of them
before any locally controlled action is still an execution of the
algorithm.
"""

from __future__ import annotations

from operator import length_hint
from typing import Any, Callable, FrozenSet, Iterable, List, Optional, Tuple

from repro.checking.events import (
    BlockEvent,
    BlockOkEvent,
    CrashEvent,
    DeliverEvent,
    GcsTrace,
    MbrshpStartChangeEvent,
    MbrshpViewEvent,
    RecoverEvent,
    SendEvent,
    ViewEvent,
)
from repro.core.fastpath import FastLane
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import WireMessage
from repro.errors import ClientMisuseError, CrashedError
from repro.ioa import Action
from repro.links import Run
from repro.membership.protocol import StartChangeNotice, ViewNotice
from repro.spec.client import BlockStatus
from repro.types import ProcessId, StartChangeId, View


class EndpointRunner:
    """Drives one :class:`~repro.core.gcs_endpoint.GcsEndpoint` reactively,
    and keeps what its application saw."""

    def __init__(
        self,
        endpoint: GcsEndpoint,
        *,
        send_wire: Callable[[FrozenSet[ProcessId], WireMessage], None],
        set_reliable: Callable[[FrozenSet[ProcessId]], None],
        on_block: Optional[Callable[[], None]] = None,
        auto_block_ok: bool = True,
        clock: Callable[[], float] = lambda: 0.0,
        trace: Optional[GcsTrace] = None,
        fastpath: bool = True,
    ) -> None:
        self.endpoint = endpoint
        self.pid = endpoint.pid
        self._send_wire = send_wire
        self._set_reliable = set_reliable
        self._on_block = on_block
        self.delivered: List[Tuple[ProcessId, Any]] = []
        self.views: List[Tuple[View, FrozenSet[ProcessId]]] = []
        # Optional application hooks, invoked after the runner's own
        # bookkeeping; see :meth:`set_app`.
        self._app_on_deliver: Optional[Callable[[ProcessId, Any], None]] = None
        self._app_on_view: Optional[Callable[[View, FrozenSet[ProcessId]], None]] = None
        # Overlay seams (repro.scale): a wire interceptor sees every
        # outbound co_rfifo.send - the fast lane's too, which sends
        # through _send - before the substrate does and may consume it
        # (return True); a receive interceptor likewise sees every
        # inbound wire message.  They sit on the runner - not on any one
        # substrate's node - so the same overlay installs over the
        # simulator, the asyncio hub, and TCP unchanged.
        self.wire_interceptor: Optional[
            Callable[[FrozenSet[ProcessId], WireMessage], bool]
        ] = None
        self.receive_interceptor: Optional[Callable[[ProcessId, WireMessage], bool]] = None
        # When True the runner plays a trivially compliant client: it
        # acknowledges every block request immediately.
        self.auto_block_ok = auto_block_ok
        self._clock = clock
        self.trace = trace if trace is not None else GcsTrace()
        # Set while a drain runs or a deferred-drain window is open; a
        # drain asked for meanwhile folds into that one (``_owed``).
        self._draining = False
        self._owed = False
        # The steady-state direct-dispatch lane (repro.core.fastpath):
        # None when disabled (fastpath=False) or when the endpoint's
        # shape disqualifies it (subclass, strict mode, ack GC, custom
        # forwarding) - then every input takes the general drain below,
        # which remains the differential oracle.
        lane = FastLane(self) if fastpath else None
        self.fast_lane = lane if lane is not None and lane.structural_ok else None
        # Drain by the endpoint class's declared ORDERING barrier (earlier
        # first) - the tuple the R5 interference lint checks against.
        ordering = type(endpoint).ORDERING
        if not ordering:
            raise ValueError(
                f"{type(endpoint).__name__} declares no ORDERING barrier to drain by"
            )
        priorities = {name: rank for rank, name in enumerate(ordering)}
        self._priority_key = lambda action: priorities.get(action.name, len(ordering))

    # ------------------------------------------------------------------
    # application side
    # ------------------------------------------------------------------

    def set_app(
        self,
        on_deliver: Optional[Callable[[ProcessId, Any], None]] = None,
        on_view: Optional[Callable[[View, FrozenSet[ProcessId]], None]] = None,
    ) -> None:
        """Attach application callbacks for deliveries and view changes."""
        self._app_on_deliver = on_deliver
        self._app_on_view = on_view

    # ------------------------------------------------------------------
    # environment inputs
    # ------------------------------------------------------------------

    def app_send(self, payload: Any) -> None:
        """The application multicasts ``payload`` to the current view."""
        if self.endpoint.crashed:
            raise CrashedError(f"{self.pid}: end-point is crashed")
        if self.endpoint.block_status is BlockStatus.BLOCKED:
            raise ClientMisuseError(
                f"{self.pid}: application sent while blocked (Figure 12 contract)"
            )
        lane = self.fast_lane
        if lane is not None and lane.try_send(payload):
            return
        self.trace.append(SendEvent(self._clock(), self.pid, payload))
        self.endpoint.apply(Action("send", (self.pid, payload)))
        self.drain()

    def block_ok(self) -> None:
        """The application acknowledges the outstanding block request."""
        self.trace.append(BlockOkEvent(self._clock(), self.pid))
        self.endpoint.apply(Action("block_ok", (self.pid,)))
        self.drain()

    def receive(self, sender: ProcessId, message: WireMessage) -> None:
        """A wire message arrived from ``sender`` via CO_RFIFO."""
        interceptor = self.receive_interceptor
        if interceptor is not None and interceptor(sender, message):
            return
        lane = self.fast_lane
        if lane is not None and lane.try_receive(sender, message):
            return
        self.endpoint.apply(Action("co_rfifo.deliver", (sender, self.pid, message)))
        self.drain()

    def receive_batch(self, entries: Iterable[Tuple[ProcessId, WireMessage]]) -> None:
        """Apply a run of CO_RFIFO deliveries, then drain once.

        The amortised inbound path for aggregated traffic (the two-tier
        overlay's sync batches): the entries are applied inside one
        deferred-drain window, which makes a reconfiguration's sync phase
        O(entries) endpoint work instead of one full drain per entry.
        Entries bypass the receive interceptor - the overlay itself is
        the caller.
        """
        held = self.hold_drain()
        try:
            apply = self.endpoint.apply
            pid = self.pid
            for sender, message in entries:
                apply(Action("co_rfifo.deliver", (sender, pid, message)))
            self._owed = True
        finally:
            if held:
                self.release_drain()

    def membership_start_change(self, cid: StartChangeId, members: Iterable[ProcessId]) -> None:
        members = frozenset(members)
        self.trace.append(MbrshpStartChangeEvent(self._clock(), self.pid, cid, members))
        self.endpoint.apply(Action("mbrshp.start_change", (self.pid, cid, members)))
        self.drain()

    def membership_view(self, view: View) -> None:
        self.trace.append(MbrshpViewEvent(self._clock(), self.pid, view))
        self.endpoint.apply(Action("mbrshp.view", (self.pid, view)))
        self.drain()

    def crash(self) -> None:
        self.trace.append(CrashEvent(self._clock(), self.pid))
        self.endpoint.apply(Action("crash", (self.pid,)))

    def recover(self) -> None:
        self.endpoint.apply(Action("recover", (self.pid,)))
        self.trace.append(RecoverEvent(self._clock(), self.pid))
        self.drain()

    # ------------------------------------------------------------------
    # substrate side
    # ------------------------------------------------------------------

    def dispatch(self, src: ProcessId, message: Any) -> None:
        """Everything the substrate delivers for this end-point."""
        if isinstance(message, StartChangeNotice):
            self.membership_start_change(message.cid, message.members)
        elif isinstance(message, ViewNotice):
            self.membership_view(message.view)
        else:
            self.receive(src, message)

    def on_run(self, run: Run) -> None:
        """One run of arrivals: each goes through :meth:`dispatch` as
        ever, inside one deferred-drain window, so the run costs one
        drain - none if every input took the fast lane.  A run of one
        payload is dispatched bare: a window around one input is the
        same execution."""
        if len(run) == 1:
            src, payloads = run[0]
            if length_hint(payloads) == 1:
                if not self.endpoint.crashed:
                    for message in payloads:
                        self.dispatch(src, message)
                return
        endpoint, dispatch = self.endpoint, self.dispatch
        held = self.hold_drain()
        try:
            for src, payloads in run:
                for message in payloads:
                    if endpoint.crashed:
                        return  # a crashed end-point hears nothing (Section 8)
                    dispatch(src, message)
        finally:
            if held:
                self.release_drain()

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------

    def hold_drain(self) -> bool:
        """Open a deferred-drain window: until :meth:`release_drain`,
        every input's drain is owed instead of run.

        Returns False, opening nothing, inside a window or a drain
        already open - the enclosing one then drains for the inputs.
        """
        if self._draining:
            return False
        self._draining = True
        self._owed = False
        return True

    def release_drain(self) -> int:
        """Close the window :meth:`hold_drain` opened, and drain once if
        an input owed a drain; returns the number of actions executed."""
        self._draining = False
        if self._owed:
            return self.drain()
        return 0

    def drain(self) -> int:
        """Run enabled locally controlled actions to quiescence.

        Returns the number of actions executed.  Reentrant calls (an
        output callback injecting a new input) fold into the outer drain,
        and calls inside a deferred-drain window into its closing one.
        """
        if self._draining:
            self._owed = True
            return 0
        self._draining = True
        endpoint = self.endpoint
        executed = 0
        try:
            while True:
                batch = endpoint.enabled_actions()
                if not batch:
                    break
                if len(batch) > 1:
                    batch.sort(key=self._priority_key)
                # Each precondition is checked once: the first action runs
                # in the state it was just found enabled in, and each later
                # one is re-checked, since an earlier action of the batch
                # (or what routing it injected) may have disabled it.
                for position, action in enumerate(batch):
                    if position and not endpoint.is_enabled(action):
                        continue
                    endpoint.apply_enabled(action)
                    self._route(action)
                    executed += 1
        finally:
            self._draining = False
        return executed

    def _route(self, action: Action) -> None:
        name = action.name
        if name == "co_rfifo.send":
            _p, targets, message = action.params
            self._send(frozenset(targets), message)
        elif name == "co_rfifo.reliable":
            _p, targets = action.params
            self._set_reliable(frozenset(targets))
        elif name == "deliver":
            _p, sender, payload = action.params
            self._on_deliver(sender, payload)
        elif name == "view":
            _p, view, transitional = action.params
            self._on_view(view, frozenset(transitional))
        elif name == "block":
            now = self._clock()
            self.trace.append(BlockEvent(now, self.pid))
            if self._on_block is not None:
                self._on_block()
            if self.auto_block_ok:
                # Immediate compliant client: acknowledge right away.  We
                # cannot recurse into drain() here (we are inside one); the
                # outer loop will pick up whatever the block_ok enables.
                self.trace.append(BlockOkEvent(now, self.pid))
                self.endpoint.apply(Action("block_ok", (self.pid,)))

    # The outputs, each stated once: the general drain (_route) and the
    # fast lane both emit through these.

    def _send(self, targets: FrozenSet[ProcessId], message: WireMessage) -> None:
        """``co_rfifo.send``: past the wire interceptor, to the substrate."""
        interceptor = self.wire_interceptor
        if interceptor is None or not interceptor(targets, message):
            self._send_wire(targets, message)

    def _on_deliver(self, sender: ProcessId, payload: Any) -> None:
        """``deliver``: traced, recorded, then the application's hook."""
        self.trace.append(DeliverEvent(self._clock(), self.pid, sender, payload))
        self.delivered.append((sender, payload))
        if self._app_on_deliver is not None:
            self._app_on_deliver(sender, payload)

    def _on_view(self, view: View, transitional: FrozenSet[ProcessId]) -> None:
        """``view``: traced, recorded, then the application's hook."""
        self.trace.append(ViewEvent(self._clock(), self.pid, view, transitional))
        self.views.append((view, transitional))
        if self._app_on_view is not None:
            self._app_on_view(view, transitional)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def current_view(self) -> View:
        return self.endpoint.current_view

    @property
    def blocked(self) -> bool:
        return self.endpoint.block_status is BlockStatus.BLOCKED

    @property
    def crashed(self) -> bool:
        return self.endpoint.crashed

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.pid} view={self.endpoint.current_view.vid!r}>"
