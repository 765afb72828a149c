"""A runtime GCS node: the end-point driver behind an async API.

``GcsNode`` is the asyncio face of
:class:`~repro.core.runner.EndpointRunner`: applications ``await
node.send(payload)`` and read deliveries and views where every runner
keeps them - the ``delivered`` / ``views`` lists, or the callbacks of
:meth:`~repro.core.runner.EndpointRunner.set_app`.  The blocking
contract of Figure 12 is enforced for the application automatically:
while the end-point has requested a block, ``send`` waits.

A node knows nothing about its substrate beyond the *fabric* it is
attached to (:class:`~repro.runtime.fabric.Fabric`): wire messages
leave through ``fabric.send`` and arrive, one pump wake-up's run at a
time, at the runner's one run consumer
(:meth:`~repro.core.runner.EndpointRunner.on_run`), which applies the
whole run inside one deferred-drain window and so drains at most once;
the node adds only the wake-up of a sender waiting out a block.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, FrozenSet, Optional

from repro.checking.events import GcsTrace
from repro.core.forwarding import ForwardingStrategy
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.runner import EndpointRunner
from repro.types import ProcessId, View

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.links import Run
    from repro.runtime.fabric import Fabric


class GcsNode(EndpointRunner):
    """One group member on a fabric: the runner's asyncio face."""

    def __init__(
        self,
        pid: ProcessId,
        fabric: "Fabric",
        on_view_installed: Callable[[], None],
        *,
        forwarding: Optional[ForwardingStrategy] = None,
        trace: Optional[GcsTrace] = None,
        fastpath: bool = True,
    ) -> None:
        self.fabric = fabric
        options = {} if forwarding is None else {"forwarding": forwarding}
        self._on_view_installed = on_view_installed
        self._unblocked = asyncio.Event()
        self._unblocked.set()
        super().__init__(
            GcsEndpoint(pid, gc_views=True, **options),
            # Fire-and-forget: the hub enqueues, the socket fabric hands
            # the message to this pid's outbox pump.
            send_wire=partial(fabric.send, pid),
            set_reliable=lambda targets: None,  # fabrics reconnect on demand
            clock=time.monotonic,
            trace=trace,
            fastpath=fastpath,
            on_block=self._unblocked.clear,
        )
        # Plugged in: from here on wire traffic reaches the end-point.
        fabric.attach(pid, self.on_run)

    # -- application API ----------------------------------------------------

    async def send(self, payload: Any) -> None:
        """Multicast ``payload`` to the current view (waits while blocked;
        raises :class:`~repro.errors.CrashedError` if the node crashes,
        and ``TypeError`` for a payload the fabric cannot carry).

        Whether the sender then yields to the loop is the fabric's call
        (:meth:`~repro.runtime.fabric.Fabric.pace`): the hub yields after
        every send, the socket fabric only once a full batch is queued,
        so a burst of sends leaves as one frame per peer.
        """
        # Before the end-point delivers it to itself and indexes it: a
        # payload the fabric fails to frame later would leave a gap.
        self.fabric.check_payload(payload)
        while self.blocked and not self.endpoint.crashed:
            await self._unblocked.wait()
        self.app_send(payload)
        await self.fabric.pace(self.pid)

    # -- wiring -------------------------------------------------------------

    def crash(self) -> None:
        super().crash()
        self._unblocked.set()  # a waiting sender leaves with CrashedError

    def recover(self) -> None:
        super().recover()
        if not self.blocked:
            self._unblocked.set()

    def on_run(self, run: Run) -> None:
        """The runner's run consumer; then a sender a block held may go."""
        super().on_run(run)
        if not self.blocked:
            self._unblocked.set()

    def _on_view(self, view: View, transitional: FrozenSet[ProcessId]) -> None:
        super()._on_view(view, transitional)
        self._unblocked.set()
        self._on_view_installed()
