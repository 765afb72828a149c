"""The runtime fabric: one CO_RFIFO service for a cluster's processes.

A :class:`Fabric` moves messages between attached processes - group
members and membership servers alike, as in the paper's Figures 1 and 3
- through its unified :class:`~repro.links.LinkCore`: ``admit()`` when a
multicast is sent, ``inbound_batch()`` when a carrier arrives, so every
message sees the one partition matrix, fault pipeline, dedup and
counter set of ``core``.  Per ordered pair of processes delivery is FIFO
and gap-free while the pair stays connected.

The base class states the service's runtime duties once: ``attach``
(with its duplicate check), the sorted self-excluding fan-out through
one ``admit`` call (:meth:`Fabric._admitted`), the hand-over of one pump
wake-up's arrivals to their handler with the first handler failure kept
(:meth:`Fabric._hand_over`), ``quiesce`` on the core's in-flight ledger
and ``close``.  A *leg* says only how a copy travels: ``_open`` the
channel state of a new process, ``send`` the admitted copies onto it,
``_pump`` them off it (one task per process), and optionally ``pace``,
``check_payload`` and ``_release``.  The in-process
:class:`~repro.runtime.transport.AsyncHub` and the socket
:class:`~repro.runtime.tcp.TcpFabric` are the two legs.

A handler takes a *run* (:data:`~repro.links.Run`): one ``(src,
payloads)`` group per carrier its pump took in one wake-up, in arrival
order, each group's payloads as ``LinkCore.inbound_batch`` resolved
them - the hub's run is every zero-delay carrier queued for the process
when its pump wakes, a socket's is one frame.  There is no per-payload
hand-over beside it: a process that wants one loops over the run.  That
is what lets an end-point apply a whole wake-up's inputs before it runs
one locally controlled action (``GcsNode`` drains once per run).

Quiescence is counted, never timed: a leg admits every copy to the
ledger in ``send``, and a copy leaves it when ``inbound_batch`` resolves
it (delivered, deduplicated or dropped at a cut) or the leg declares it
``lost``.  Handlers run synchronously after the run they handle is
resolved, so a reply is admitted before any waiter sees the zero.  A
handler that raises does not stop its inbox: the fabric keeps the first
such exception, hands the handler the rest of its run, ``quiesce``
raises the exception at once instead of waiting out its deadline, and
``close`` raises it again once the pumps are gone.
"""

from __future__ import annotations

import asyncio
from operator import length_hint
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chaos.faults import FaultInjector
from repro.errors import SettleTimeoutError
from repro.links import LinkCore, Run, Transmission
from repro.runtime.settle import await_settled
from repro.types import ProcessId

Handler = Callable[[Run], None]


class Fabric:
    """The runtime duties of a CO_RFIFO service; a leg adds the channel.

    ``attach`` and ``send`` never await - the whole
    :class:`~repro.membership.tier.TierLink` protocol, which is why a
    cluster hands its membership tier the fabric itself.
    """

    def __init__(
        self, *, faults: Optional[FaultInjector] = None, core: Optional[LinkCore] = None
    ) -> None:
        # One link core for every process of the fabric: one partition
        # matrix, one fault pipeline, one counter set, one ledger.
        self.core = core if core is not None else LinkCore(faults=faults)
        self._handlers: Dict[ProcessId, Handler] = {}
        self._pumps: Dict[ProcessId, asyncio.Task] = {}
        # The first exception a handler raised (see quiesce / close).
        self.failure: Optional[Exception] = None
        self._quiet = asyncio.Event()
        self.core.on_idle(self._quiet.set)

    def attach(self, pid: ProcessId, handler: Handler) -> None:
        """Deliver every message for ``pid`` to ``handler(run)``, one run
        per pump wake-up (see the module docstring)."""
        if pid in self._handlers:
            raise ValueError(f"duplicate process {pid!r}")
        self._open(pid)
        self._handlers[pid] = handler
        self.core.ensure(pid)
        self._pumps[pid] = asyncio.get_running_loop().create_task(self._pump(pid))

    # ------------------------------------------------------------------
    # the leg: how a copy travels
    # ------------------------------------------------------------------

    def _open(self, pid: ProcessId) -> None:
        """Create ``pid``'s channel state, before its pump starts."""
        raise NotImplementedError

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        """Fire-and-forget FIFO multicast: put each copy of
        :meth:`_admitted` on its channel without blocking."""
        raise NotImplementedError

    async def _pump(self, pid: ProcessId) -> None:
        """Take ``pid``'s carriers off its channel in order, for ever,
        and give each wake-up's to :meth:`_hand_over` as one run."""
        raise NotImplementedError

    def check_payload(self, payload: Any) -> None:
        """Raise ``TypeError`` (or ``ValueError``) for an application
        payload the leg cannot carry; by default it carries anything."""

    async def pace(self, src: ProcessId) -> None:
        """Yield to the loop, or not, after an application send by ``src``.

        By default after every send: the receivers' pumps run on the
        sender's own loop, so a burst left unyielded would drain inside
        whatever the sender awaits next - a timed reconfiguration, say -
        rather than beside the sends.
        """
        await asyncio.sleep(0)

    async def _release(self) -> None:
        """Free what the leg holds beyond its pumps (sockets, say)."""

    # ------------------------------------------------------------------
    # what every leg shares
    # ------------------------------------------------------------------

    def _admitted(
        self, src: ProcessId, targets: Iterable[ProcessId], message: Any
    ) -> List[Tuple[ProcessId, Transmission]]:
        """Admit one multicast to the core: ``(dst, transmission)`` per
        attached destination other than ``src`` whose link is not cut.

        Sorted fan-out: ``targets`` is usually a frozenset, and hash-order
        iteration would leak the interpreter's hash seed into same-instant
        delivery order (traces must replay byte-for-byte).  A cut link's
        suffix is lost, as CO_RFIFO allows.
        """
        handlers = self._handlers
        dsts = [dst for dst in sorted(targets) if dst != src and dst in handlers]
        return [
            (dst, transmission)
            for dst, transmission in zip(dsts, self.core.admit(src, dsts, message))
            if transmission is not None
        ]

    def _hand_over(self, dst: ProcessId, run: List[Tuple[ProcessId, Iterator[Any]]]) -> None:
        """Give one wake-up's resolved run to ``dst``'s handler; a handler
        exception is kept, and delivery goes on.

        Each group's payloads are an iterator, so what the handler took
        before it raised stays taken: the rest of the run - the tail of
        the group it raised in and every later group - goes to it again,
        as long as each attempt takes something.
        """
        handler = self._handlers[dst]
        left = None
        while run:
            try:
                handler(run)
                return
            except Exception as exc:
                if self.failure is None:
                    self.failure = exc
                    self._quiet.set()  # wake quiesce, which raises it
            run = [group for group in run if length_hint(group[1])]
            remaining = sum(length_hint(payloads) for _src, payloads in run)
            if remaining == left:
                return  # it took nothing this time: the rest is dropped
            left = remaining

    async def quiesce(self, timeout: Optional[float] = None) -> None:
        """Wait until the core's ledger shows no message in flight.

        Raises :class:`~repro.errors.SettleTimeoutError` (with
        :meth:`~repro.links.LinkCore.describe_stall`) if traffic never
        stops within ``timeout`` seconds (default: the settle deadline),
        and the first exception a handler raised as soon as there is one.
        """

        def quiet() -> bool:
            if self.failure is not None:
                raise self.failure
            return self.core.in_flight == 0

        await self._settle(quiet, timeout)

    async def close(self) -> None:
        """Let the admitted copies resolve, cancel the pumps, release the
        leg, then raise the first handler exception.

        A send its caller has returned from may still be queued (``pace``
        need not yield); it is handed over before its pump is cancelled,
        also after a handler has raised.  Only traffic that never settles
        (past the settle deadline) is cancelled with the pumps.
        """
        try:
            await self._settle(lambda: self.core.in_flight == 0, None)
        except SettleTimeoutError:
            pass  # close still releases everything; a settle names the stall
        for task in self._pumps.values():
            task.cancel()
        await asyncio.gather(*self._pumps.values(), return_exceptions=True)
        self._pumps.clear()
        await self._release()
        if self.failure is not None:
            raise self.failure

    async def _settle(self, quiet: Callable[[], bool], timeout: Optional[float]) -> None:
        # Yield once: callbacks already due this loop turn may still send.
        await asyncio.sleep(0)
        await await_settled(quiet, self._quiet, timeout=timeout, describe=self.core.describe_stall)
