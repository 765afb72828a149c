"""The end-point host: one GCS end-point, hosted, on any substrate.

Every substrate runs an end-point the same way - the automaton, the one
:class:`~repro.core.runner.EndpointRunner` driving it, what the
application saw (``delivered``, ``views``) and the dispatch of whatever
arrives: a membership notice goes to the MBRSHP input it stands for,
anything else is a CO_RFIFO delivery.  A substrate's own host
(:class:`~repro.net.world.SimNode`, :class:`~repro.runtime.node.GcsNode`)
adds only how it is wired to its transport.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, List, Optional, Tuple

from repro.checking.events import GcsTrace
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import WireMessage
from repro.core.runner import EndpointRunner
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
