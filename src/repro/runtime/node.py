"""A runtime GCS node: the end-point automaton behind an async API.

``GcsNode`` is the deployment face of the library: applications
``await node.send(payload)`` and consume deliveries and views from
``node.events_queue``.  The blocking contract of Figure 12 is enforced
for the application automatically: while the end-point has requested a
block, ``send`` waits; the node acknowledges the block (``block_ok``)
once the application has no send in flight.

A node knows nothing about its substrate beyond the *fabric* it is
attached to (:class:`~repro.runtime.cluster.Fabric`): wire messages
leave through ``fabric.send`` and arrive at :meth:`GcsNode._on_wire`,
whether the fabric is the in-process hub or loopback sockets.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, FrozenSet, List, Optional, Tuple

from repro.checking.events import GcsTrace
from repro.core.forwarding import ForwardingStrategy
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.runner import EndpointRunner
from repro.membership.protocol import StartChangeNotice, ViewNotice
from repro.types import ProcessId, View

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.runtime.cluster import Fabric


@dataclass(frozen=True)
class Delivery:
    """An application message delivered to this node."""

    sender: ProcessId
    payload: Any


@dataclass(frozen=True)
class ViewChange:
    """A new view (with its transitional set) installed at this node."""

    view: View
    transitional: FrozenSet[ProcessId]


class GcsNode:
    """One group member: end-point + runner + event queue on a fabric."""

    def __init__(
        self,
        pid: ProcessId,
        fabric: "Fabric",
        *,
        forwarding: Optional[ForwardingStrategy] = None,
        trace: Optional[GcsTrace] = None,
        on_view_installed: Optional[Callable[[], None]] = None,
        fastpath: bool = True,
    ) -> None:
        self.pid = pid
        self.fabric = fabric
        kwargs = {"gc_views": True}
        if forwarding is not None:
            kwargs["forwarding"] = forwarding
        self.endpoint = GcsEndpoint(pid, **kwargs)
        self.events_queue: asyncio.Queue = asyncio.Queue()
        self.delivered: List[Tuple[ProcessId, Any]] = []
        self.views: List[View] = []
        self._on_view_installed = on_view_installed
        self._unblocked = asyncio.Event()
        self._unblocked.set()
        self.runner = EndpointRunner(
            self.endpoint,
            # Fire-and-forget: the hub enqueues, the socket fabric hands
            # the message to this pid's outbox pump.
            send_wire=partial(fabric.send, pid),
            set_reliable=lambda targets: None,  # fabrics reconnect on demand
            on_deliver=self._on_deliver,
            on_view=self._on_view,
            on_block=self._unblocked.clear,
            auto_block_ok=True,
            clock=time.monotonic,
            trace=trace,
            fastpath=fastpath,
        )

    async def attach(self) -> None:
        """Plug into the fabric; from here on wire traffic reaches the end-point."""
        await self.fabric.attach(self.pid, self._on_wire)

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------

    async def send(self, payload: Any) -> None:
        """Multicast ``payload`` to the current view (waits while blocked)."""
        while self.runner.blocked:
            await self._unblocked.wait()
        self.runner.app_send(payload)
        await asyncio.sleep(0)  # let the fabric's pumps make progress

    async def next_event(self, timeout: Optional[float] = None) -> Any:
        """The next :class:`Delivery` or :class:`ViewChange`."""
        if timeout is None:
            return await self.events_queue.get()
        return await asyncio.wait_for(self.events_queue.get(), timeout)

    async def wait_for_view(self, predicate: Callable[[View], bool], timeout: float = 5.0) -> ViewChange:
        """Consume events until a view satisfying ``predicate`` arrives."""
        deadline = asyncio.get_event_loop().time() + timeout
        while True:
            remaining = deadline - asyncio.get_event_loop().time()
            event = await asyncio.wait_for(self.events_queue.get(), max(0.01, remaining))
            if isinstance(event, ViewChange) and predicate(event.view):
                return event

    @property
    def current_view(self) -> View:
        return self.endpoint.current_view

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Crash the end-point: it ignores traffic until :meth:`recover`."""
        self.runner.crash()
        self._unblocked.set()  # do not leave senders waiting on a corpse

    def recover(self) -> None:
        self.runner.recover()
        if not self.runner.blocked:
            self._unblocked.set()

    @property
    def crashed(self) -> bool:
        return self.endpoint.crashed

    def _on_wire(self, src: ProcessId, message: Any) -> None:
        if self.endpoint.crashed:
            return  # a crashed end-point hears nothing (Section 8)
        if isinstance(message, StartChangeNotice):
            self.runner.membership_start_change(message.cid, message.members)
        elif isinstance(message, ViewNotice):
            self.runner.membership_view(message.view)
        else:
            self.runner.receive(src, message)
        if not self.runner.blocked:
            self._unblocked.set()

    def _on_deliver(self, sender: ProcessId, payload: Any) -> None:
        self.delivered.append((sender, payload))
        self.events_queue.put_nowait(Delivery(sender, payload))

    def _on_view(self, view: View, transitional: FrozenSet[ProcessId]) -> None:
        self.views.append(view)
        self.events_queue.put_nowait(ViewChange(view, transitional))
        self._unblocked.set()
        if self._on_view_installed is not None:
            self._on_view_installed()
