"""In-process asyncio transport hub.

``AsyncHub`` is the in-process leg of :class:`~repro.runtime.fabric.Fabric`:
per-ordered-pair FIFO delivery through per-process inboxes and pump
tasks, with all link semantics - partition matrix, fault application,
receiver-side deduplication, message counters - delegated to the
:class:`~repro.links.LinkCore`, and attach, quiescence, handler failures
and ``close`` to the base class.  In-process delivery is lossless, so
the CO_RFIFO contract (Figure 3) holds trivially; partitions can still
be injected for tests (messages across a cut are dropped, which the
reliable-set semantics permit only for non-reliable peers - the paper's
algorithm re-establishes reliability through the membership service, so
tests pair partitions with reconfigurations, as a real WAN deployment
would).

:meth:`AsyncHub.send` adds each copy the base admitted to the open
:class:`~repro.links.Carrier` at the tail of its destination's inbox, so
a sender's back-to-back copies travel as one carrier.  A pump wake-up
takes every zero-delay carrier already queued in its inbox - from any
number of senders - and hands them over as one run, in queue order; a
carrier with an injected delay ends the run and leads the next one once
its delay is over, so per-link FIFO holds.  An application sender yields
after every send (the base's ``pace``), so the receivers handle a burst
while it is being sent.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional, Tuple

from repro.chaos.faults import FaultInjector
from repro.links import Carrier, LinkCore
from repro.runtime.fabric import Fabric
from repro.types import ProcessId


class AsyncHub(Fabric):
    """Routes messages between in-process asyncio nodes."""

    def __init__(
        self, *, faults: Optional[FaultInjector] = None, core: Optional[LinkCore] = None
    ) -> None:
        super().__init__(faults=faults, core=core)
        # Per pid: its inbox of carriers, and the event its pump waits on
        # while the inbox is empty.
        self._inboxes: Dict[ProcessId, Tuple[Deque[Carrier], asyncio.Event]] = {}
        # Newest (possibly still open) carrier per destination inbox.
        self._tails: Dict[ProcessId, Carrier] = {}

    register = Fabric.attach  # the hub's own name for it, which its bare drivers use

    def _open(self, pid: ProcessId) -> None:
        self._inboxes[pid] = (deque(), asyncio.Event())

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        tails = self._tails
        for dst, transmission in self._admitted(src, targets, message):
            # A duplicated wire copy occupies the inbox behind the
            # original; the pump hands it to the core's dedup.  A
            # zero-delay copy behind an undelivered run from the same
            # sender rides the tail carrier instead of waking the pump
            # once per message.
            for wire, extra in transmission.copies:
                tail = tails.get(dst)
                if tail is None or not tail.join(wire, extra, src):
                    tail = tails[dst] = Carrier(wire, extra, src)
                    inbox, arrived = self._inboxes[dst]
                    inbox.append(tail)
                    arrived.set()

    async def _pump(self, pid: ProcessId) -> None:
        inbox, arrived = self._inboxes[pid]
        inbound = self.core.inbound_batch
        while True:
            while not inbox:
                arrived.clear()
                await arrived.wait()
            # One wake-up, one run: every zero-delay carrier queued behind
            # the first joins it; a delayed one stays queued, to lead the
            # next run after its delay.
            run = []
            while inbox and not (run and inbox[0].extra):
                carrier = inbox.popleft()
                carrier.open = False
                if carrier.extra:
                    await asyncio.sleep(carrier.extra)
                run.append((carrier.stamp, iter(inbound(carrier.stamp, pid, carrier.copies))))
            self._hand_over(pid, run)
