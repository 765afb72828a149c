"""The end-point host: one GCS end-point, hosted, on any substrate.

Every substrate runs an end-point the same way - the automaton, the one
:class:`~repro.core.runner.EndpointRunner` driving it, what the
application saw (``delivered``, ``views``) and the dispatch of whatever
arrives: a membership notice goes to the MBRSHP input it stands for,
anything else is a CO_RFIFO delivery.

Every substrate also hands arrivals over the same way: as a *run*
(:data:`~repro.links.Run`) - a runtime fabric's pump wake-up, the
simulator's arrival instant - which :meth:`EndpointHost.on_run` applies
inside one deferred-drain window of the runner, so the run costs one
drain (none if every input took the fast lane).  A substrate's own host
(:class:`~repro.net.world.SimNode`, :class:`~repro.runtime.node.GcsNode`)
adds only how it is wired to its transport.
"""

from __future__ import annotations

from operator import length_hint
from typing import Any, Callable, FrozenSet, List, Optional, Tuple

from repro.checking.events import GcsTrace
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import WireMessage
from repro.core.runner import EndpointRunner
from repro.links import Run
from repro.membership.protocol import StartChangeNotice, ViewNotice
from repro.types import ProcessId, View


class EndpointHost:
    """End-point + runner + application bookkeeping."""

    def __init__(
        self,
        endpoint: GcsEndpoint,
        *,
        send_wire: Callable[[FrozenSet[ProcessId], WireMessage], None],
        set_reliable: Callable[[FrozenSet[ProcessId]], None],
        clock: Callable[[], float],
        trace: Optional[GcsTrace],
        fastpath: bool,
        on_block: Optional[Callable[[], None]] = None,
    ) -> None:
        self.pid = endpoint.pid
        self.endpoint = endpoint
        self.delivered: List[Tuple[ProcessId, Any]] = []
        self.views: List[Tuple[View, FrozenSet[ProcessId]]] = []
        # Optional application hooks, invoked after the host's own
        # bookkeeping; see :meth:`set_app`.
        self._app_on_deliver: Optional[Callable[[ProcessId, Any], None]] = None
        self._app_on_view: Optional[Callable[[View, FrozenSet[ProcessId]], None]] = None
        self.runner = EndpointRunner(
            endpoint,
            send_wire=send_wire,
            set_reliable=set_reliable,
            on_deliver=self._on_deliver,
            on_view=self._on_view,
            on_block=on_block,
            auto_block_ok=True,
            clock=clock,
            trace=trace,
            fastpath=fastpath,
        )

    # -- application side ---------------------------------------------------

    def send(self, payload: Any) -> None:
        """Application-level multicast to the current view."""
        self.runner.app_send(payload)

    def set_app(
        self,
        on_deliver: Optional[Callable[[ProcessId, Any], None]] = None,
        on_view: Optional[Callable[[View, FrozenSet[ProcessId]], None]] = None,
    ) -> None:
        """Attach application callbacks for deliveries and view changes."""
        self._app_on_deliver = on_deliver
        self._app_on_view = on_view

    def _on_deliver(self, sender: ProcessId, payload: Any) -> None:
        self.delivered.append((sender, payload))
        if self._app_on_deliver is not None:
            self._app_on_deliver(sender, payload)

    def _on_view(self, view: View, transitional: FrozenSet[ProcessId]) -> None:
        self.views.append((view, transitional))
        if self._app_on_view is not None:
            self._app_on_view(view, transitional)

    # -- substrate side -----------------------------------------------------

    def dispatch(self, src: ProcessId, message: Any) -> None:
        """Everything the substrate delivers for this end-point."""
        if isinstance(message, StartChangeNotice):
            self.runner.membership_start_change(message.cid, message.members)
        elif isinstance(message, ViewNotice):
            self.runner.membership_view(message.view)
        else:
            self.runner.receive(src, message)

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
        runner, endpoint, dispatch = self.runner, self.endpoint, self.dispatch
        held = runner.hold_drain()
        try:
            for src, payloads in run:
                for message in payloads:
                    if endpoint.crashed:
                        return  # a crashed end-point hears nothing (Section 8)
                    dispatch(src, message)
        finally:
            if held:
                runner.release_drain()

    def crash(self) -> None:
        """Crash the end-point: it ignores traffic until :meth:`recover`."""
        self.runner.crash()

    def recover(self) -> None:
        self.runner.recover()

    @property
    def crashed(self) -> bool:
        return self.endpoint.crashed

    @property
    def current_view(self) -> View:
        return self.endpoint.current_view

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.pid} view={self.endpoint.current_view.vid!r}>"
