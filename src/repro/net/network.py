"""The simulated network: the simulator's one CO_RFIFO service.

``SimNetwork`` is the discrete-event *driver* over the unified
:class:`~repro.links.LinkCore`: the core owns link semantics (the
partition/reachability matrix, the fault-application pipeline,
receiver-side deduplication, the per-link FIFO clamp, message
counters), while this class owns what is genuinely scheduling - the
event queue that carries messages with per-link latency - and the one
rule of the paper's CO_RFIFO service (Figure 3) the core leaves to its
drivers: a suffix may be lost only towards a peer outside the sender's
reliable set.

Per registered process it keeps that reliable set (:meth:`set_reliable`)
and whether the process is crashed, and per link one *held* queue.  When
a partition cuts a link, every carrier in flight on it dies whole
(:meth:`LinkCore.lost <repro.links.LinkCore.lost>`); if the peer is in
the sender's reliable set, the carrier's originals (not its
``DuplicateCopy`` markers) go to the link's held queue, which also takes
everything sent while the link stays cut.  When the link reconnects the
held queue is sent first, in order - senders in registration order,
peers sorted - so per-link FIFO holds without gaps across flapping
links.  Any other copy across a cut is CO_RFIFO's ``lose``.  A crashed
process sends nothing, hears nothing and forgets its reliable set and
held queues.

A multicast is one :meth:`~SimNetwork.multicast` call: the core admits
it once (:meth:`LinkCore.admit <repro.links.LinkCore.admit>`).
Point-to-point :meth:`~SimNetwork.send` is a fan-out of one.

Delivery is by arrival instant, not by fan-out: every carrier scheduled
for one clamped arrival time, whatever its link, joins that instant's
one scheduled event, and when it fires each destination gets its
surviving carriers as one :data:`~repro.links.Run` - one ``(src,
payloads)`` group per carrier, in schedule order - the handler shape of
every runtime fabric.  A process's CO_RFIFO and MBRSHP inputs are always
enabled, so applying every copy that reaches it at one instant before
any of its locally controlled actions is still an execution of the
algorithm; an end-point host then drains once per instant instead of
once per copy.  Carriers of different sends share an instant only when
their clamped arrival times are equal floats: a discrete latency model
(:class:`~repro.net.latency.ConstantLatency`) gives that, a jittered
one (:class:`~repro.net.latency.UniformLatency`) seldom does - only
where the FIFO clamp lifts a carrier onto an earlier one's time - and
there most runs stay one carrier long.  Each carrier keeps its own
place in its link's in-flight queue, so a cut still kills exactly the
cut links' carriers, and the flight and crash checks run per
destination just before its hand-over: a cut or crash made by an
earlier destination's handler still kills a later destination's
carriers of the same instant.

The per-kind message counters live in the core's
:class:`~repro.links.LinkStats` (``network.core.stats``); the benchmark
harness reads them to reproduce the paper's message-cost claims.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.chaos.faults import DuplicateCopy, FaultInjector
from repro.links import Carrier, Link, LinkCore, Run, Transmission
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.simclock import EventScheduler, ScheduledEvent
from repro.types import ProcessId

# receiver callback: one run per arrival instant
RunHandler = Callable[[Run], None]


class SimNetwork:
    """Latency-modelled, partitionable CO_RFIFO service of simulated processes."""

    def __init__(
        self,
        clock: EventScheduler,
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultInjector] = None,
        core: Optional[LinkCore] = None,
    ) -> None:
        self.clock = clock
        self.latency = latency or ConstantLatency(1.0)
        self.core = core if core is not None else LinkCore(faults=faults)
        self._handlers: Dict[ProcessId, RunHandler] = {}
        self._reliable: Dict[ProcessId, FrozenSet[ProcessId]] = {}
        self._crashed: Set[ProcessId] = set()
        # Originals waiting, per link, for the link to reconnect.
        self._held: Dict[Link, Deque[Any]] = {}
        # Carriers on the wire, per link, in arrival order, each beside
        # the arrival instant it shares with every other link's.
        self._in_flight: Dict[Link, Deque[Tuple[_Arrival, Carrier]]] = {}
        # The instants with a scheduled event, by clamped arrival time.
        self._arrivals: Dict[float, _Arrival] = {}
        # The newest (possibly still joinable) carrier per link, and the
        # instant it was opened at: a copy sent later never joins it, even
        # with the same arrival.  Kept beside the carrier rather than in a
        # per-copy stamp tuple, so a send allocates nothing to ask.
        self._open: Dict[Link, Carrier] = {}
        self._opened_at: Dict[Link, float] = {}
        self.core.on_topology_change(self._on_topology_change)

    # ------------------------------------------------------------------
    # the CO_RFIFO client interface
    # ------------------------------------------------------------------

    def register(self, pid: ProcessId, handler: RunHandler) -> None:
        """Attach ``pid``'s inbox (again: replace its handler): one
        ``handler(run)`` per arrival instant.  A new process is reliable
        to itself alone."""
        self._handlers[pid] = handler
        self._reliable.setdefault(pid, frozenset({pid}))
        self.core.ensure(pid)

    def send(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        """FIFO-send ``message`` from ``src`` to ``dst``: a fan-out of one."""
        self.multicast(src, (dst,), message)

    def multicast(self, src: ProcessId, dsts: Sequence[ProcessId], message: Any) -> None:
        """FIFO-send ``message`` from ``src`` to each of ``dsts`` (sorted,
        without ``src``): onto the wire, held while a link is cut if its
        peer is reliable to ``src``, or lost.

        The link core admits the fan-out once; the copies it admits are
        then scheduled (:meth:`_schedule`)."""
        if src in self._crashed:
            return
        if self._held:
            free = []
            for dst in dsts:
                queue = self._held.get((src, dst))
                if queue is None:
                    free.append(dst)
                else:
                    queue.append(message)
            dsts = free
        self._schedule(src, dsts, self.core.admit(src, dsts, message), message)

    def set_reliable(self, pid: ProcessId, targets: Iterable[ProcessId]) -> None:
        """Declare ``pid``'s reliable set; the held queues towards cut-off
        peers outside it are dropped."""
        reliable = self._reliable[pid] = frozenset(targets)
        for link in [link for link in self._held if link[0] == pid and link[1] not in reliable]:
            if not self.core.connected(*link):
                del self._held[link]

    def reliable_set(self, pid: ProcessId) -> FrozenSet[ProcessId]:
        return self._reliable[pid]

    def crash(self, pid: ProcessId) -> None:
        """``pid`` goes down: it sends and hears nothing, and forgets its
        reliable set and with it its held queues (a held queue exists only
        while its link is cut)."""
        self._crashed.add(pid)
        self.set_reliable(pid, ())

    def recover(self, pid: ProcessId) -> None:
        self._crashed.discard(pid)
        self._reliable[pid] = frozenset({pid})

    def channel(self, src: ProcessId, dst: ProcessId) -> List[Any]:
        """What ``dst`` has yet to receive from ``src``, in channel order:
        the copies in flight (carrier by carrier), then the held queue."""
        flight = self._in_flight.get((src, dst), ())
        copies = [wire for _arrival, carrier in flight for wire in carrier.copies]
        return copies + list(self._held.get((src, dst), ()))

    # ------------------------------------------------------------------
    # topology changes
    # ------------------------------------------------------------------

    def _on_topology_change(self) -> None:
        """Cut carriers die whole; reconnected links send their held queues.

        A carrier dies *whole* - each of its copies accounted lost in
        channel order - so a cut never splits a batch into a delivered
        prefix and a held suffix.
        """
        for link, flight in self._in_flight.items():
            if not flight or self.core.connected(*link):
                continue
            src, dst = link
            hold = dst in self._reliable.get(src, ())
            while flight:
                arrival, carrier = flight.popleft()
                arrival.live -= 1
                if not arrival.live and arrival.event is not None:
                    arrival.event.cancel()
                    arrival.event = None
                    del self._arrivals[arrival.at]
                carrier.open = False
                self.core.lost(src, dst, carrier.copies)
                if hold:
                    self._held.setdefault(link, deque()).extend(
                        wire for wire in carrier.copies if not isinstance(wire, DuplicateCopy)
                    )
        if not self._held:
            return
        # Release order is send order, which feeds the fault injector's
        # RNG: senders in registration order, peers sorted (no hash seed).
        rank = {pid: index for index, pid in enumerate(self._handlers)}
        for link in sorted(self._held, key=lambda link: (rank[link[0]], link[1])):
            if self.core.connected(*link):
                for message in self._held.pop(link):
                    self.send(*link, message)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def _schedule(
        self,
        src: ProcessId,
        dsts: Sequence[ProcessId],
        transmissions: List[Optional[Transmission]],
        message: Any,
    ) -> None:
        """Put one fan-out's admitted copies on the wire.

        Each copy rides the newest carrier on its link when it was opened
        at this instant for the same clamped arrival (:class:`Carrier`),
        or opens one, which joins the arrival instant of its clamped time
        (scheduling the instant's event if it is the first carrier).
        """
        now = self.clock.now
        sample = self.latency.sample
        clamp = self.core.fifo_arrival
        open_carriers, opened_at, in_flight = self._open, self._opened_at, self._in_flight
        arrivals = self._arrivals
        arrival: Optional[_Arrival] = None
        for dst, transmission in zip(dsts, transmissions):
            link = (src, dst)
            if transmission is None:
                if dst in self._reliable.get(src, ()):
                    self._held[link] = deque((message,))
                continue
            for wire, extra in transmission.copies:
                # The FIFO clamp must see every proposed arrival (it is
                # stateful), so sample and clamp before trying to join.
                at = clamp(src, dst, now + sample(src, dst) + extra)
                carrier = open_carriers.get(link)
                if carrier is not None and opened_at[link] == now and carrier.join(wire, extra, at):
                    continue
                carrier = open_carriers[link] = Carrier(wire, extra, at)
                opened_at[link] = now
                if arrival is None or arrival.at != at:
                    arrival = arrivals.get(at)
                    if arrival is None:
                        arrival = arrivals[at] = _Arrival(at)
                        arrival.event = self.clock.schedule_at(at, partial(self._deliver, arrival))
                    else:
                        arrival.mixed = True
                arrival.srcs.append(src)
                arrival.dsts.append(dst)
                arrival.carriers.append(carrier)
                arrival.live += 1
                flight = in_flight.get(link)
                if flight is None:
                    flight = in_flight[link] = deque()
                flight.append((arrival, carrier))

    def _deliver(self, arrival: "_Arrival") -> None:
        """One instant's event: each destination's carriers still on the
        wire, as one run, destinations in the order they were first
        scheduled; the flight and crash checks run per destination, just
        before its hand-over.  When a handler raises, the instant's later
        destinations still get their runs (:meth:`_deliver_rest`) before
        the error goes up."""
        # Delivering: a cut from a handler cancels nothing (and the event
        # and this arrival no longer hold each other); a send for this
        # instant from a handler opens a new one.  The rest of a raising
        # instant comes back here with neither.
        if arrival.event is not None:
            del self._arrivals[arrival.at]
            arrival.event = None
        srcs, dsts, carriers = arrival.srcs, arrival.dsts, arrival.carriers
        in_flight, inbound = self._in_flight, self.core.inbound_batch
        handlers, crashed = self._handlers, self._crashed
        if not arrival.mixed:
            triples = zip(srcs, dsts, carriers)
            try:
                for src, dst, carrier in triples:
                    flight = in_flight[src, dst]
                    if not flight or flight[0][1] is not carrier:
                        continue  # died whole at a cut
                    flight.popleft()
                    carrier.open = False
                    payloads = inbound(src, dst, carrier.copies)
                    handler = handlers.get(dst)
                    if payloads and handler is not None and dst not in crashed:
                        handler([(src, payloads)])
            except Exception:
                self._deliver_rest(arrival, list(triples))
                raise
            return
        # Per destination, its sources and carriers interleaved (no index objects).
        by_dst: Dict[ProcessId, List[Any]] = {}
        for src, dst, carrier in zip(srcs, dsts, carriers):
            pairs = by_dst.get(dst)
            if pairs is None:
                by_dst[dst] = [src, carrier]
            else:
                pairs += (src, carrier)
        # Each carrier is now held by its destination's list (and its
        # in-flight entry) alone: a run's carriers go once it is handed over.
        srcs.clear()
        dsts.clear()
        carriers.clear()
        destinations = iter(by_dst)
        try:
            for dst in destinations:
                pairs, by_dst[dst] = by_dst[dst], None
                run = []
                it = iter(pairs)
                for src, carrier in zip(it, it):
                    flight = in_flight[src, dst]
                    if not flight or flight[0][1] is not carrier:
                        continue  # died whole at a cut
                    flight.popleft()
                    carrier.open = False
                    payloads = inbound(src, dst, carrier.copies)
                    if payloads:
                        run.append((src, payloads))
                handler = handlers.get(dst)
                if run and handler is not None and dst not in crashed:
                    handler(run)
        except Exception:
            rest = []
            for dst in destinations:
                it = iter(by_dst[dst])
                rest += ((src, dst, carrier) for src, carrier in zip(it, it))
            self._deliver_rest(arrival, rest)
            raise

    def _deliver_rest(
        self, arrival: "_Arrival", rest: List[Tuple[ProcessId, ProcessId, Carrier]]
    ) -> None:
        """A handler raised at ``arrival``'s instant: hand the carriers of
        the destinations after it over now, grouped as usual, so none is
        stranded in flight with no event left to deliver it.  (A second
        raising handler's error goes up instead, chained to the first.)"""
        arrival.srcs = [src for src, _dst, _carrier in rest]
        arrival.dsts = [dst for _src, dst, _carrier in rest]
        arrival.carriers = [carrier for _src, _dst, carrier in rest]
        arrival.mixed = True
        self._deliver(arrival)


class _Arrival:
    """One arrival instant: the ``carriers`` scheduled for clamped arrival
    ``at``, on any links, in schedule order - each from ``srcs`` to
    ``dsts`` at the same index (parallel lists: no per-carrier object
    beyond its in-flight entry).

    An instant only one fan-out opened has each destination once (a
    duplicate rides its original's carrier), so its runs are its carriers
    one by one; ``mixed`` marks one that another send joined, whose
    carriers are grouped by destination when it fires.  Grouping every
    instant instead costs the steady state's one-fan-out instants: 12,238
    against 11,445 opcodes per 16-member ping (+6.9 %), network-only ping
    +17 % in-process, and ``steady.sim`` ``mcast_latency_p50_ms`` +12 %
    / p90 +11 % over 10 interleaved pairs (lost 7/10 and 9/10), on a
    2-core x86-64 machine.

    Each carrier also sits in its link's in-flight queue beside this
    arrival; ``live`` counts those a cut has not killed, and the event is
    cancelled when none is left.
    """

    __slots__ = ("at", "event", "srcs", "dsts", "carriers", "live", "mixed")

    def __init__(self, at: float) -> None:
        self.at = at
        self.event: Optional[ScheduledEvent] = None
        self.srcs: List[ProcessId] = []
        self.dsts: List[ProcessId] = []
        self.carriers: List[Carrier] = []
        self.live = 0
        self.mixed = False
