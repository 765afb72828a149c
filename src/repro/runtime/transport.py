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
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Iterable, Optional

from repro.chaos.faults import FaultInjector
from repro.errors import SettleTimeoutError
from repro.links import BATCH_LIMIT, LinkCore
from repro.runtime.settle import settle_timeout as env_settle_timeout
from repro.types import ProcessId

Handler = Callable[[ProcessId, Any], None]


class _InboxEntry:
    """One inbox-queue entry: a batch of wire copies from one sender.

    While the entry sits unpopped at the tail of a destination's queue
    (``open``), further zero-delay copies from the same sender coalesce
    onto it - one pump wakeup then handles the whole run.  The pump
    closes the entry the moment it pops it, so a copy can never join a
    batch that is already being delivered.
    """

    __slots__ = ("src", "copies", "extra", "open")

    def __init__(self, src: ProcessId, wire: Any, extra: float) -> None:
        self.src = src
        self.copies = [wire]
        self.extra = extra
        self.open = True


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
        # Newest (possibly still open) inbox entry per destination.
        self._tails: Dict[ProcessId, _InboxEntry] = {}
        self._pumps: Dict[ProcessId, asyncio.Task] = {}
        self._closed = False
        # Messages enqueued but not yet fully handled.  ``_idle`` fires
        # whenever the count returns to zero, so ``quiesce`` can wait on
        # an event instead of sleep-polling the queues.
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()

    def attach(self, pid: ProcessId, handler: Handler) -> None:
        if pid in self._handlers:
            raise ValueError(f"duplicate process {pid!r}")
        self._handlers[pid] = handler
        self._queues[pid] = asyncio.Queue()
        self.core.ensure(pid)
        self._pumps[pid] = asyncio.get_running_loop().create_task(self._pump(pid))

    register = attach  # the hub's own name for it, which its bare drivers use

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        # Sorted fan-out: targets is usually a frozenset, and hash-order
        # iteration would leak the interpreter's hash seed into
        # same-instant delivery order (traces must replay byte-for-byte).
        for dst in sorted(targets):
            if dst == src or dst not in self._queues:
                continue
            transmission = self.core.outbound(src, dst, message)
            if transmission is None:
                continue  # partitioned: the suffix is lost, as CO_RFIFO allows
            for wire, extra in transmission.copies:
                # A duplicated wire copy occupies the queue behind the
                # original; the pump hands it to the core's dedup.
                self._enqueue(dst, src, wire, extra)

    def _enqueue(self, dst: ProcessId, src: ProcessId, wire: Any, extra: float) -> None:
        self._inflight += 1
        self._idle.clear()
        tail = self._tails.get(dst)
        if (
            tail is not None
            and tail.open
            and tail.src == src
            and extra == 0.0
            and self.delay == 0.0
            and len(tail.copies) < BATCH_LIMIT
        ):
            # Zero-delay copy behind an undelivered run from the same
            # sender: ride the open tail entry instead of waking the pump
            # once per message.  Queue order per sender is unchanged, so
            # per-link FIFO holds across batch boundaries.
            tail.copies.append(wire)
            return
        entry = _InboxEntry(src, wire, extra)
        self._tails[dst] = entry
        self._queues[dst].put_nowait(entry)

    async def _pump(self, pid: ProcessId) -> None:
        queue = self._queues[pid]
        handler = self._handlers[pid]
        while not self._closed:
            entry = await queue.get()
            entry.open = False
            if self.delay or entry.extra:
                await asyncio.sleep(self.delay + entry.extra)
            try:
                for payload in self.core.inbound_batch(entry.src, pid, entry.copies):
                    handler(entry.src, payload)
            finally:
                self._inflight -= len(entry.copies)
                if self._inflight == 0:
                    self._idle.set()

    async def close(self) -> None:
        self._closed = True
        for task in self._pumps.values():
            task.cancel()
        await asyncio.gather(*self._pumps.values(), return_exceptions=True)
        self._pumps.clear()

    async def quiesce(self, timeout: Optional[float] = None) -> None:
        """Wait until no message is in flight anywhere on the hub.

        Handlers may send further messages while handling one; the
        in-flight counter covers those too, so when it hits zero the
        fabric is genuinely quiescent.  Raises
        :class:`SettleTimeoutError` instead of hanging if traffic never
        stops within ``timeout`` seconds (default: the
        ``$REPRO_SETTLE_TIMEOUT``-scaled settle deadline).
        """
        if timeout is None:
            timeout = env_settle_timeout(10.0)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            # Yield once so a send scheduled in the current task's step
            # reaches the pumps before we sample the counter.
            await asyncio.sleep(0)
            if self._inflight == 0:
                return
            remaining = deadline - loop.time()
            if remaining <= 0:
                pending = {
                    pid: queue.qsize()
                    for pid, queue in self._queues.items()
                    if queue.qsize()
                }
                # Tier traffic rides the same hub as data; a stall caused
                # by membership messages should say so.
                raise SettleTimeoutError(
                    f"hub still has {self._inflight} message(s) in flight "
                    f"after {timeout:.1f}s; pending inboxes: {pending}; "
                    f"{self.core.stats.describe_tier_links()}; "
                    f"busiest links: {self.core.stats.describe_links()}"
                )
            try:
                await asyncio.wait_for(self._idle.wait(), remaining)
            except asyncio.TimeoutError:
                pass
