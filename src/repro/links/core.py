"""The unified link-layer core shared by every substrate.

The paper's CO_RFIFO layer (Figure 3) assumes one well-defined link
contract: per-link FIFO, no duplication, symmetric reachability.  Every
substrate of this reproduction - the discrete-event
:class:`~repro.net.network.SimNetwork`, the in-process asyncio
:class:`~repro.runtime.transport.AsyncHub`, and the socket-backed
:class:`~repro.runtime.tcp.TcpFabric` - must realise that same
contract; :class:`LinkCore` states it exactly once.

A ``LinkCore`` owns, for one deployment's fabric:

* the **partition/reachability matrix** - ``partition(groups)`` /
  ``heal()`` (component-based cuts) and ``restrict(pid, allowed)``
  (per-endpoint frame filters, the former TCP-only emulation) are one
  API, and :meth:`connected` is its single symmetric query;
* **fan-out admission** - :meth:`admit` takes one multicast, as the
  paper's CO_RFIFO takes one ``send_p(set, m)``: with no fault injector
  and no cut link it counts the fan-out once, and otherwise it runs
  :meth:`outbound` per destination;
* the **fault-application pipeline** - :meth:`outbound` turns a
  :class:`~repro.chaos.faults.FaultInjector` decision into wire copies
  (drop = retransmission-penalty latency, duplicate = a real second
  :class:`~repro.chaos.faults.DuplicateCopy` on the channel, delay and
  reorder = jitter under the FIFO clamp);
* **receiver-side deduplication** - :meth:`inbound_batch` discards
  ``DuplicateCopy`` markers, so no end-point ever sees a duplicate;
* the **per-link FIFO clamp** - :meth:`fifo_arrival` keeps arrivals on
  one ordered link monotone even under jittered latencies;
* uniform :class:`LinkStats` **counters** - per-kind and per-link, with
  ``totals()`` / ``reset_counters()`` on every substrate (previously the
  simulator alone counted messages);
* the **in-flight ledger** - :attr:`LinkCore.in_flight` counts the wire
  copies :meth:`admit` or :meth:`outbound` admitted that no
  :meth:`inbound_batch` or :meth:`lost` has resolved yet; every driver
  admits a copy when it is sent, so "nothing in transit" is this one exact
  number on every substrate, and listeners registered with
  :meth:`on_idle` hear each return to zero;
* the **frame-error count** - :attr:`LinkCore.frame_errors` tallies, by
  reason, the frames a socket codec refused to encode or decode
  (:mod:`repro.wire`), which a chaos run reports as ``RUN-FRAME``.

The substrates keep only *scheduling and IO*: the simulator its event
queue and, as the simulator's one CO_RFIFO service, each process's
reliable set and a held queue per link; the hub its asyncio pumps; the
TCP fabric its outbox pumps and stream framing - each over the one
:class:`~repro.links.Carrier` rule of :mod:`repro.links.batch`.  A
fourth substrate (UDP, shared memory, multi-process) is one driver over
this class - see the "Link layer" section of ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
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
from repro.types import ProcessId

Link = Tuple[ProcessId, ProcessId]

# One wire copy: (message, extra delay before it may travel).
WireCopy = Tuple[Any, float]

# What a substrate hands a process at once - a runtime fabric per pump
# wake-up, the simulator per arrival instant: one ``(src, payloads)``
# group per arrived carrier, in arrival order, each ``payloads`` what
# :meth:`LinkCore.inbound_batch` resolved it to - an iterator on the
# fabrics, so a handler takes each group in one pass; a list on the
# simulator.
Run = Sequence[Tuple[ProcessId, Iterable[Any]]]


def kind_of(message: Any) -> str:
    """The counter key of a wire message: its class name."""
    return type(message).__name__


def _busiest(per_link: Counter, limit: int) -> str:
    """``src->dst: count`` for the ``limit`` busiest links, busiest first."""
    busiest = sorted(per_link.items(), key=lambda item: (-item[1], item[0]))
    shown = ", ".join(f"{src}->{dst}: {count}" for (src, dst), count in busiest[:limit])
    extra = len(busiest) - limit
    return shown + (f" (+{extra} more)" if extra > 0 else "")


@dataclass
class LinkStats:
    """Uniform message accounting for one fabric.

    ``sent``/``delivered``/``bounced`` count by message kind (class
    name); ``volume`` sums ``estimated_size()`` for kinds that define it
    (synchronization messages); ``per_link`` counts transmissions per
    ordered ``(src, dst)`` pair, which the settle-timeout diagnostics
    print so a stalled run shows *where* the traffic was.
    """

    sent: Counter = field(default_factory=Counter)
    delivered: Counter = field(default_factory=Counter)
    bounced: Counter = field(default_factory=Counter)
    volume: Counter = field(default_factory=Counter)
    per_link: Counter = field(default_factory=Counter)

    def record_sent(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        kind = kind_of(message)
        self.sent[kind] += 1
        self.per_link[(src, dst)] += 1
        size = getattr(message, "estimated_size", None)
        if size is not None:
            self.volume[kind] += size()

    def record_bounced(self, message: Any) -> None:
        self.bounced[kind_of(message)] += 1

    def totals(self) -> Dict[str, int]:
        """Messages handed to the fabric, by kind."""
        return dict(self.sent)

    def reset_counters(self) -> None:
        self.sent.clear()
        self.delivered.clear()
        self.bounced.clear()
        self.volume.clear()
        self.per_link.clear()

    def describe_links(self, limit: int = 6) -> str:
        """The busiest links, for :class:`SettleTimeoutError` diagnostics."""
        return _busiest(self.per_link, limit) if self.per_link else "no traffic"

    def describe_tier_links(self, limit: int = 6) -> str:
        """The busiest membership-tier links, for stall diagnostics.

        Tier traffic rides the same fabric as data; a stalled settle
        caused by membership messages should say so.  Server endpoints
        are recognised by the ``srv:`` naming convention (kept as a
        string here - the membership layer sits above this one).
        """
        tier = Counter({
            link: count
            for link, count in self.per_link.items()
            if any(str(end).startswith("srv:") for end in link)
        })
        return "tier links " + _busiest(tier, limit) if tier else "no tier traffic"


@dataclass(frozen=True)
class Transmission:
    """What one accepted send puts on the wire.

    ``copies`` lists the wire copies in channel order - the message
    itself (with any fault-induced extra delay) and, when the injector
    duplicated it, a :class:`DuplicateCopy` marker that the receiving
    side of the core will discard.  ``dropped`` records that the
    original was "lost" and its delay is a retransmission penalty.
    """

    copies: Tuple[WireCopy, ...]
    dropped: bool = False


class LinkCore:
    """Substrate-agnostic semantics of one deployment's link fabric."""

    def __init__(self, *, faults: Optional[FaultInjector] = None) -> None:
        self.faults = faults
        self.stats = LinkStats()
        # partition matrix: processes in different groups cannot exchange
        # messages; group 0 is the default connected component.
        self._group: Dict[ProcessId, int] = {}
        # per-endpoint frame filters (the former TCP-only ``restrict``):
        # when set, the endpoint exchanges messages only with the listed
        # peers.  Connectivity requires *mutual* allowance, keeping the
        # reachability relation symmetric as the contract demands.
        self._allowed: Dict[ProcessId, FrozenSet[ProcessId]] = {}
        # No partition or restriction cuts any link: admit() may then
        # count a fan-out once instead of copy by copy.
        self._whole = True
        self._listeners: List[Callable[[], None]] = []
        # Last granted arrival per ordered link: the FIFO clamp.
        self._last_arrival: Dict[Link, float] = {}
        # The ledger: admitted wire copies not yet resolved.  Not a
        # statistic - reset_counters() leaves it alone.
        self.in_flight = 0
        self._idle_listeners: List[Callable[[], None]] = []
        # Frames the socket codec refused, by FrameError reason: findings,
        # not statistics - reset_counters() leaves them alone too.
        self.frame_errors: Counter = Counter()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def ensure(self, pid: ProcessId) -> None:
        """Register ``pid`` on the fabric (idempotent)."""
        self._group.setdefault(pid, 0)

    def processes(self) -> List[ProcessId]:
        return sorted(self._group)

    # ------------------------------------------------------------------
    # the partition/reachability matrix
    # ------------------------------------------------------------------

    def partition(self, groups: Iterable[Iterable[ProcessId]]) -> None:
        """Split the fabric into components; unmentioned processes join
        group 0 (the residual component)."""
        assignment: Dict[ProcessId, int] = {}
        for index, group in enumerate(groups, start=1):
            for pid in group:
                assignment[pid] = index
                self.ensure(pid)
        for pid in self._group:
            self._group[pid] = assignment.get(pid, 0)
        self._notify_topology()

    def heal(self) -> None:
        """Merge every component and lift every restriction."""
        for pid in self._group:
            self._group[pid] = 0
        self._allowed.clear()
        self._notify_topology()

    def restrict(self, pid: ProcessId, allowed: Optional[Iterable[ProcessId]]) -> None:
        """Limit ``pid``'s traffic to ``allowed`` peers (``None`` lifts).

        The per-endpoint face of the partition matrix: a process whose
        allowed set excludes a peer can neither send to nor hear from it,
        regardless of which side initiated the frame.
        """
        self.ensure(pid)
        if allowed is None:
            self._allowed.pop(pid, None)
        else:
            self._allowed[pid] = frozenset(allowed)
        self._notify_topology()

    def _permits(self, p: ProcessId, q: ProcessId) -> bool:
        allowed = self._allowed.get(p)
        return allowed is None or q == p or q in allowed

    def connected(self, p: ProcessId, q: ProcessId) -> bool:
        """Symmetric reachability: same component, mutual allowance."""
        if self._group.get(p, 0) != self._group.get(q, 0):
            return False
        return self._permits(p, q) and self._permits(q, p)

    def reachable_from(self, p: ProcessId) -> Set[ProcessId]:
        return {q for q in self._group if self.connected(p, q)}

    def on_topology_change(self, listener: Callable[[], None]) -> None:
        self._listeners.append(listener)

    def _notify_topology(self) -> None:
        self._whole = not self._allowed and not any(self._group.values())
        for listener in list(self._listeners):
            listener()

    # ------------------------------------------------------------------
    # per-link FIFO sequencing
    # ------------------------------------------------------------------

    def fifo_arrival(self, src: ProcessId, dst: ProcessId, proposed: float) -> float:
        """Clamp ``proposed`` so arrivals on the link stay monotone.

        Jittered latencies (or fault-injected delays) must never let a
        later transmission overtake an earlier one on the same ordered
        link - per-link FIFO is part of the CO_RFIFO contract.
        """
        link = (src, dst)
        arrival = max(proposed, self._last_arrival.get(link, 0.0))
        self._last_arrival[link] = arrival
        return arrival

    # ------------------------------------------------------------------
    # the fault-application pipeline
    # ------------------------------------------------------------------

    def outbound(self, src: ProcessId, dst: ProcessId, message: Any) -> Optional[Transmission]:
        """Admit one transmission to the wire, or ``None`` across a cut.

        Applies the fault pipeline exactly once, whatever the substrate:
        a *dropped* message arrives after a retransmission penalty, a
        *duplicated* one adds a real :class:`DuplicateCopy` to the
        channel (behind the original, preserving FIFO), *delay*/*reorder*
        add jitter the driver must pass through :meth:`fifo_arrival` or
        its substrate's own per-link FIFO.  Every wire copy is counted,
        and enters the in-flight ledger until the driver resolves it.
        """
        if not self.connected(src, dst):
            return None
        if self.faults is None:
            self.stats.record_sent(src, dst, message)
            self.in_flight += 1
            return Transmission(((message, 0.0),))
        decision = None
        if not isinstance(message, DuplicateCopy):
            decision = self.faults.decide(src, dst)
        copies: List[WireCopy] = [(message, decision.extra_delay if decision else 0.0)]
        if decision is not None and decision.duplicate:
            copies.append((DuplicateCopy(message), 0.0))
        for wire, _extra in copies:
            self.stats.record_sent(src, dst, wire)
        self.in_flight += len(copies)
        return Transmission(tuple(copies), dropped=bool(decision and decision.dropped))

    def admit(
        self, src: ProcessId, dsts: Sequence[ProcessId], message: Any
    ) -> List[Optional[Transmission]]:
        """Admit one multicast: what :meth:`outbound` returns for each of
        ``dsts`` (sorted, without ``src``), in that order.

        The paper's CO_RFIFO takes one ``send_p(set, m)`` per multicast,
        and so does this call.  With no fault injector and no link cut
        anywhere every copy is the message itself, so the fan-out is
        counted once - ``len(dsts)`` sends of one kind and volume, and
        as many copies into the ledger - and every destination shares
        one :class:`Transmission`.  Otherwise each destination runs
        :meth:`outbound`, the one statement of the fault pipeline.
        """
        if self.faults is not None or not self._whole:
            return [self.outbound(src, dst, message) for dst in dsts]
        count = len(dsts)
        if not count:
            return []
        stats = self.stats
        kind = kind_of(message)
        stats.sent[kind] += count
        per_link = stats.per_link
        for dst in dsts:
            per_link[src, dst] += 1
        size = getattr(message, "estimated_size", None)
        if size is not None:
            stats.volume[kind] += size() * count
        self.in_flight += count
        return [Transmission(((message, 0.0),))] * count

    def inbound(
        self,
        src: ProcessId,
        dst: ProcessId,
        message: Any,
        *,
        check_topology: bool = False,
    ) -> Optional[Any]:
        """Filter one arriving wire copy: :meth:`inbound_batch` of one."""
        payloads = self.inbound_batch(src, dst, (message,), check_topology=check_topology)
        return payloads[0] if payloads else None

    def inbound_batch(
        self,
        src: ProcessId,
        dst: ProcessId,
        copies: Sequence[Any],
        *,
        check_topology: bool = False,
    ) -> List[Any]:
        """Filter one arriving carrier of wire copies; the payloads to deliver.

        Every copy is accounted and deduplicated individually (counters
        count messages, not batches): :class:`DuplicateCopy` markers die
        here - receiver-side dedup, stated once for every substrate.
        ``check_topology=True`` (drivers whose wire can hold frames
        across a cut, e.g. kernel socket buffers) drops a carrier whose
        link the matrix has severed, and the check is atomic - the
        carrier dies *whole*, each of its messages recorded as bounced,
        so a cut can never split a batch into a delivered prefix and a
        lost suffix.  Either way every copy leaves the in-flight ledger.
        """
        if check_topology and not self.connected(src, dst):
            self.lost(src, dst, copies)
            return []
        delivered = self.stats.delivered
        payloads = []
        for wire in copies:
            delivered[kind_of(wire)] += 1
            if isinstance(wire, DuplicateCopy):
                if self.faults is not None:
                    self.faults.suppressed_duplicate()
                continue
            payloads.append(wire)
        self._resolve(len(copies))
        return payloads

    def lost(self, src: ProcessId, dst: ProcessId, copies: Sequence[Any]) -> None:
        """Account admitted copies that die on the wire: the one way they do.

        A carrier cut whole at a partition, or the unwritten rest of a run
        a failed socket write threw away.  The copies are recorded as
        bounced and leave the ledger.  Whether their message is gone -
        CO_RFIFO's ``lose``, which the membership service then repairs -
        is the driver's call: the simulator holds the originals bound for
        a reliable peer and sends them again on reconnect.
        """
        del src, dst  # accounting is kind-based; kept for future per-link stats
        for wire in copies:
            self.stats.record_bounced(wire)
        self._resolve(len(copies))

    # ------------------------------------------------------------------
    # the in-flight ledger
    # ------------------------------------------------------------------

    def _resolve(self, count: int) -> None:
        self.in_flight -= count
        if not self.in_flight:
            for listener in self._idle_listeners:
                listener()

    def on_idle(self, listener: Callable[[], None]) -> None:
        """Call ``listener`` whenever :attr:`in_flight` returns to zero."""
        self._idle_listeners.append(listener)

    def frame_error(self, reason: str) -> None:
        """Count a frame the socket codec refused to encode or decode
        (a :class:`~repro.errors.FrameError` reason, or ``unencodable``)."""
        self.frame_errors[reason] += 1

    def describe_stall(self) -> str:
        """What a stalled settle reports, on every substrate: the ledger,
        then the busiest tier links and the busiest links overall."""
        refused = f", frame errors: {dict(self.frame_errors)}" if self.frame_errors else ""
        return (
            f"wire copies in flight: {self.in_flight}{refused}; "
            f"{self.stats.describe_tier_links()}; "
            f"busiest links: {self.stats.describe_links()}"
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, int]:
        return self.stats.totals()

    def reset_counters(self) -> None:
        """Clear the statistics; the in-flight ledger is not one."""
        self.stats.reset_counters()

    def __repr__(self) -> str:
        groups = sorted(set(self._group.values()))
        return (
            f"<LinkCore processes={len(self._group)} groups={groups} "
            f"restricted={sorted(self._allowed)} sent={sum(self.stats.sent.values())}>"
        )


__all__ = [
    "Link",
    "LinkCore",
    "LinkStats",
    "Transmission",
    "WireCopy",
    "kind_of",
]
