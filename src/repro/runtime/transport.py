"""In-process asyncio transport hub.

``AsyncHub`` is the asyncio *driver* over the unified
:class:`~repro.links.LinkCore` and the in-process
:class:`~repro.runtime.cluster.Fabric`: per-ordered-pair FIFO delivery through
per-process inbox queues and pump tasks, with all link semantics -
partition matrix, fault application, receiver-side deduplication,
message counters - delegated to the core.  In-process delivery is
lossless, so the CO_RFIFO contract (Figure 3) holds trivially;
partitions can still be injected for tests (messages across a cut are
dropped, which the reliable-set semantics permit only for non-reliable
peers - the paper's algorithm re-establishes reliability through the
membership service, so tests pair partitions with reconfigurations, as
a real WAN deployment would).

:meth:`AsyncHub.send` admits each multicast through one
:meth:`~repro.links.LinkCore.admit` call when it is sent and adds each
admitted copy to the open :class:`~repro.links.Carrier` at the tail of
its destination's inbox, so one pump wakeup delivers a sender's whole
run.  An application sender yields after every send
(:meth:`AsyncHub.pace`), so the receivers handle a burst while it is
being sent.

The hub keeps no count of its own: a copy is in flight from the core's
``admit()`` until the pump hands it to ``inbound_batch()``, so
:meth:`AsyncHub.quiesce` is the runtime's one wait on the core's
in-flight ledger (:func:`~repro.runtime.settle.await_quiescent`).  A
handler that raises does not stop its inbox: the hub keeps the first
such exception, ``quiesce`` raises it at once instead of waiting out
its deadline, and ``close`` raises it again once the pumps are gone.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Iterable, Optional

from repro.chaos.faults import FaultInjector
from repro.links import Carrier, LinkCore
from repro.runtime.settle import await_quiescent
from repro.types import ProcessId

Handler = Callable[[ProcessId, Any], None]


class AsyncHub:
    """Routes messages between in-process asyncio nodes."""

    def __init__(
        self,
        *,
        delay: float = 0.0,
        faults: Optional[FaultInjector] = None,
        core: Optional[LinkCore] = None,
    ) -> None:
        self.delay = delay
        self.core = core if core is not None else LinkCore(faults=faults)
        self._handlers: Dict[ProcessId, Handler] = {}
        self._queues: Dict[ProcessId, asyncio.Queue] = {}
        # Newest (possibly still open) carrier per destination inbox.
        self._tails: Dict[ProcessId, Carrier] = {}
        self._pumps: Dict[ProcessId, asyncio.Task] = {}
        self._closed = False
        # The first exception a handler raised (see quiesce / close).
        self.failure: Optional[Exception] = None
        self._quiet = asyncio.Event()
        self.core.on_idle(self._quiet.set)

    def attach(self, pid: ProcessId, handler: Handler) -> None:
        if pid in self._handlers:
            raise ValueError(f"duplicate process {pid!r}")
        self._handlers[pid] = handler
        self._queues[pid] = asyncio.Queue()
        self.core.ensure(pid)
        self._pumps[pid] = asyncio.get_running_loop().create_task(self._pump(pid))

    register = attach  # the hub's own name for it, which its bare drivers use

    def check_payload(self, payload: Any) -> None:
        """Accept any payload: the hub passes objects and never frames them."""

    async def pace(self, src: ProcessId) -> None:
        """Yield after every application send.

        The receivers' pumps run on the sender's own loop, so a burst
        left unyielded would drain inside whatever the sender awaits next
        - a timed reconfiguration, say - rather than beside the sends.
        """
        await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        # Sorted fan-out: targets is usually a frozenset, and hash-order
        # iteration would leak the interpreter's hash seed into
        # same-instant delivery order (traces must replay byte-for-byte).
        queues = self._queues
        dsts = [dst for dst in sorted(targets) if dst != src and dst in queues]
        for dst, transmission in zip(dsts, self.core.admit(src, dsts, message)):
            if transmission is None:
                continue  # partitioned: the suffix is lost, as CO_RFIFO allows
            for wire, extra in transmission.copies:
                # A duplicated wire copy occupies the queue behind the
                # original; the pump hands it to the core's dedup.
                self._enqueue(dst, src, wire, extra)

    def _enqueue(self, dst: ProcessId, src: ProcessId, wire: Any, extra: float) -> None:
        # A zero-delay copy behind an undelivered run from the same sender
        # rides the tail carrier instead of waking the pump once per
        # message; the hub's own delay counts as extra delay.
        extra += self.delay
        tail = self._tails.get(dst)
        if tail is not None and tail.join(wire, extra, src):
            return
        carrier = self._tails[dst] = Carrier(wire, extra, src)
        self._queues[dst].put_nowait(carrier)

    async def _pump(self, pid: ProcessId) -> None:
        queue = self._queues[pid]
        handler = self._handlers[pid]
        while not self._closed:
            carrier = await queue.get()
            carrier.open = False
            if carrier.extra:
                await asyncio.sleep(carrier.extra)
            src = carrier.stamp
            for payload in self.core.inbound_batch(src, pid, carrier.copies):
                try:
                    handler(src, payload)
                except Exception as exc:
                    self._handler_failed(exc)

    def _handler_failed(self, exc: Exception) -> None:
        """Keep the first exception a handler raised and wake the waiters:
        the pump delivers on, and :meth:`quiesce` raises it."""
        if self.failure is None:
            self.failure = exc
            self._quiet.set()

    async def close(self) -> None:
        """Release the pumps; then raise the first handler exception."""
        self._closed = True
        for task in self._pumps.values():
            task.cancel()
        await asyncio.gather(*self._pumps.values(), return_exceptions=True)
        self._pumps.clear()
        if self.failure is not None:
            raise self.failure

    async def quiesce(self, timeout: Optional[float] = None) -> None:
        """Wait until the core's ledger shows no message in flight.

        Handlers may send further messages while handling one; those are
        admitted before the handled batch's pump step ends, so a zero
        ledger means the hub is genuinely quiescent.  Raises
        :class:`~repro.errors.SettleTimeoutError` if traffic never stops
        within ``timeout`` seconds (default: the settle deadline), and the
        first exception a handler raised as soon as there is one.
        """
        await await_quiescent(
            self.core, self._quiet, timeout=timeout, failure=lambda: self.failure
        )
