"""The simulated point-to-point network.

``SimNetwork`` is the discrete-event *driver* over the unified
:class:`~repro.links.LinkCore`: the core owns link semantics (the
partition/reachability matrix, the fault-application pipeline,
receiver-side deduplication, the per-link FIFO clamp, message
counters), while this class owns what is genuinely scheduling - the
event queue that carries messages with per-link latency, and the
*bounce* discipline: when a partition cuts a link, every message still
in flight on it is bounced back to the sending transport at that
instant (a failed transmission); the transport decides, based on its
reliable set, whether to retransmit after the heal or to drop
(realising CO_RFIFO's ``lose``).  Bouncing at partition time - rather
than silently checking connectivity at arrival - keeps the per-link
FIFO/no-gap discipline easy to preserve across flapping links.

The per-kind message counters live in the core's
:class:`~repro.links.LinkStats` (``network.core.stats``); the benchmark
harness reads them to reproduce the paper's message-cost claims.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, Optional, Set, Tuple

from repro.chaos.faults import FaultInjector
from repro.links import Carrier, Link, LinkCore, kind_of
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.simclock import EventScheduler, ScheduledEvent
from repro.types import ProcessId

# receiver callback: (src, message) -> None
DeliveryHandler = Callable[[ProcessId, Any], None]
# bounce callback: (dst, message) -> None, invoked on failed transmission
BounceHandler = Callable[[ProcessId, Any], None]


class SimNetwork:
    """Latency-modelled, partitionable, per-link-FIFO message fabric."""

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
        self._handlers: Dict[ProcessId, DeliveryHandler] = {}
        self._bounce: Dict[ProcessId, BounceHandler] = {}
        # Carriers on the wire, per link, in arrival order.
        self._in_flight: Dict[Link, Deque[Tuple[ScheduledEvent, Carrier]]] = {}
        # The newest (possibly still joinable) carrier per link, and the
        # instant it was opened at: a copy sent later never joins it, even
        # with the same arrival.  Kept beside the carrier rather than in a
        # per-copy stamp tuple, so a send allocates nothing to ask.
        self._open: Dict[Link, Carrier] = {}
        self._opened_at: Dict[Link, float] = {}
        # The flush must observe topology changes before any transport
        # pump does, so it is the core's first listener.
        self.core.on_topology_change(self._flush_cut_links)

    @property
    def faults(self) -> Optional[FaultInjector]:
        return self.core.faults

    # ------------------------------------------------------------------
    # registration and topology (delegated to the link core)
    # ------------------------------------------------------------------

    def register(
        self,
        pid: ProcessId,
        handler: DeliveryHandler,
        bounce: Optional[BounceHandler] = None,
    ) -> None:
        self._handlers[pid] = handler
        if bounce is not None:
            self._bounce[pid] = bounce
        self.core.ensure(pid)

    def connected(self, p: ProcessId, q: ProcessId) -> bool:
        return self.core.connected(p, q)

    def reachable_from(self, p: ProcessId) -> Set[ProcessId]:
        return self.core.reachable_from(p)

    def partition(self, groups: Iterable[Iterable[ProcessId]]) -> None:
        """Split the network; unmentioned processes join group 0."""
        self.core.partition(groups)

    def heal(self) -> None:
        """Merge all partitions back into one connected component."""
        self.core.heal()

    def on_topology_change(self, listener: Callable[[], None]) -> None:
        self.core.on_topology_change(listener)

    def _flush_cut_links(self) -> None:
        """Bounce everything in flight on links the new topology cuts.

        A carrier bounces *whole* - each of its copies accounted and
        handed back in channel order - so a cut never splits a batch into
        a delivered prefix and a bounced suffix.
        """
        for (src, dst), flight in self._in_flight.items():
            if self.core.connected(src, dst):
                continue
            bounce = self._bounce.get(src)
            while flight:
                event, carrier = flight.popleft()
                event.cancel()
                carrier.open = False
                for wire in carrier.copies:
                    original = self.core.bounced(src, dst, wire)
                    if original is not None and bounce is not None:
                        bounce(dst, original)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    @staticmethod
    def kind_of(message: Any) -> str:
        return kind_of(message)

    def send(self, src: ProcessId, dst: ProcessId, message: Any) -> bool:
        """Put ``message`` on the wire; False if src and dst are partitioned."""
        transmission = self.core.outbound(src, dst, message)
        if transmission is None:
            return False
        for wire, extra in transmission.copies:
            self._schedule(src, dst, wire, extra)
        return True

    def _schedule(self, src: ProcessId, dst: ProcessId, wire: Any, extra: float) -> None:
        link = (src, dst)
        now = self.clock.now
        # The FIFO clamp must see every proposed arrival (it is stateful),
        # so sample and clamp before deciding whether to coalesce.
        arrival = self.core.fifo_arrival(
            src, dst, now + self.latency.sample(src, dst) + extra
        )
        # Same instant, same (clamped) arrival, same link: the copy rides
        # the already-scheduled carrier (one event for the run).
        carrier = self._open.get(link)
        if (
            carrier is not None
            and self._opened_at[link] == now
            and carrier.join(wire, extra, arrival)
        ):
            return
        flight = self._in_flight.setdefault(link, deque())
        carrier = self._open[link] = Carrier(wire, extra, arrival)
        self._opened_at[link] = now

        def deliver() -> None:
            # Retire exactly this carrier's entry, keyed by the scheduled
            # event: matching by message identity pops a different
            # transmission's entry when the same message object is on the
            # link twice, leaving a live event that a later partition
            # flush cannot cancel.
            carrier.open = False
            if flight and flight[0] is entry:
                flight.popleft()
            else:
                try:
                    flight.remove(entry)
                except ValueError:
                    pass
            handler = self._handlers.get(dst)
            for payload in self.core.inbound_batch(src, dst, carrier.copies):
                if handler is not None:
                    handler(src, payload)

        event = self.clock.schedule_at(arrival, deliver)
        entry = (event, carrier)
        flight.append(entry)

    # ------------------------------------------------------------------
    # statistics (the core's LinkStats)
    # ------------------------------------------------------------------

    def reset_counters(self) -> None:
        self.core.reset_counters()

    def totals(self) -> Dict[str, int]:
        return self.core.totals()
