"""Batched wire framing for the unified link layer.

Real virtual-synchrony stacks get their steady-state throughput from
coalescing: many small application messages travelling one ordered link
at (nearly) the same moment share one carrier - one kernel syscall, one
encode, one scheduler event - instead of paying the per-message fixed
cost each time.  Every driver admits each multicast through one
:meth:`LinkCore.admit <repro.links.LinkCore.admit>` call when it is
sent and adds each admitted copy to an open :class:`Carrier` on its
link, whose one joining rule is stated here for all three substrates:

* the discrete-event simulator opens one carrier per link for
  same-instant, same-arrival copies, and schedules one event for the
  carriers one fan-out opens, one after another, at one arrival;
* the asyncio hub queues one inbox entry per carrier of one sender's
  copies to a destination;
* the TCP fabric queues one outbox entry per carrier of copies to a
  peer, and its transport frames that carrier as one length-prefixed
  :mod:`repro.wire` record, a :class:`MessageBatch` when it holds more
  than one copy (``encode_batch``/``read_frame`` in
  :mod:`repro.runtime.tcp`).

Batching never changes link semantics: the copies inside a carrier keep
their channel order (per-link FIFO holds *across* carrier boundaries),
fault products such as :class:`~repro.chaos.faults.DuplicateCopy`
markers ride inside the carrier and die in the receiver-side dedup, and
:class:`~repro.links.LinkStats` counts messages, never batches - see
:meth:`LinkCore.inbound_batch <repro.links.LinkCore.inbound_batch>`.
A carrier is also *atomic* on the wire: a partition cut can bounce or
drop it only as a whole, never deliver a prefix of it.
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

#: Maximum wire copies coalesced into one carrier.  Keeps single batches
#: from growing without bound under a flood (bounded frame sizes, bounded
#: work per scheduler event) while still amortising the per-carrier cost
#: ~30x.
BATCH_LIMIT = 32


class MessageBatch:
    """An ordered run of wire copies sharing one carrier on one link.

    Purely a framing object: it appears between a driver's send side and
    the receiving :meth:`LinkCore.inbound_batch`, and never reaches an
    end-point (the core unpacks it and hands payloads on one at a time).
    """

    __slots__ = ("copies",)

    def __init__(self, copies: Tuple[Any, ...]) -> None:
        self.copies = copies

    def __len__(self) -> int:
        return len(self.copies)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.copies)

    def __reduce__(self):
        # Tuple-based pickling: one constructor call instead of the
        # generic slotted-class protocol.  Sockets frame a batch with
        # repro.wire, not pickle.
        return (MessageBatch, (self.copies,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageBatch):
            return NotImplemented
        return self.copies == other.copies

    def __repr__(self) -> str:
        return f"MessageBatch({len(self.copies)} copies)"


class Carrier:
    """One open run of wire copies on one link, as a driver queues it.

    A driver opens a carrier for a copy that cannot join the newest one
    on its link and schedules it (a simulator event, a hub inbox entry, a
    socket outbox entry); later copies then :meth:`join` it instead of
    paying for a carrier of their own.  The rule is stated here once for
    every driver: a copy joins only while the carrier is ``open`` (not
    yet popped by the driver's delivery step), only with zero extra
    delay (a fault-delayed copy opens a carrier of its own, which then
    travels after its delay), only with the same ``stamp`` (what else
    the driver requires to match - the sender on a shared inbox, the
    clamped arrival on the simulator), and only while the carrier holds
    fewer than ``BATCH_LIMIT`` copies.  Appending keeps channel order,
    so per-link FIFO holds across carriers.
    """

    __slots__ = ("copies", "extra", "stamp", "open")

    def __init__(self, wire: Any, extra: float = 0.0, stamp: Any = None) -> None:
        self.copies = [wire]
        self.extra = extra
        self.stamp = stamp
        self.open = True

    def join(self, wire: Any, extra: float = 0.0, stamp: Any = None) -> bool:
        """Append ``wire`` if the rule lets it ride; False otherwise."""
        if self.open and not extra and stamp == self.stamp and len(self.copies) < BATCH_LIMIT:
            self.copies.append(wire)
            return True
        return False


__all__ = ["BATCH_LIMIT", "Carrier", "MessageBatch"]
