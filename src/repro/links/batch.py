"""Batched wire framing for the unified link layer.

Real virtual-synchrony stacks get their steady-state throughput from
coalescing: many small application messages travelling one ordered link
at (nearly) the same moment share one carrier - one kernel syscall, one
encode, one scheduler event - instead of paying the per-message fixed
cost each time.  :class:`MessageBatch` is that carrier, stated once so
all three substrates ship the same object:

* the discrete-event simulator coalesces same-instant wire copies of one
  link under a single scheduled event;
* the asyncio hub appends to the open tail entry of a destination's
  inbox queue;
* the TCP transport frames one batch as one length-prefixed
  :mod:`repro.wire` record (``encode_batch``/``read_frame`` in
  :mod:`repro.runtime.tcp`).

Batching never changes link semantics: the copies inside a batch keep
their channel order (per-link FIFO holds *across* batch boundaries),
fault products such as :class:`~repro.chaos.faults.DuplicateCopy`
markers ride inside the batch and die in the receiver-side dedup, and
:class:`~repro.links.LinkStats` counts messages, never batches - see
:meth:`LinkCore.inbound_batch <repro.links.LinkCore.inbound_batch>`.
A batch is also *atomic* on the wire: a partition cut can bounce or drop
it only as a whole, never deliver a prefix of it.
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


def coalesce_copies(copies, limit: int = BATCH_LIMIT):
    """Coalesce a channel-ordered run of wire copies into carriers.

    Consecutive copies with no extra (fault-injected) delay share one
    :class:`MessageBatch` carrier, up to ``limit`` per batch; a delayed
    copy travels alone (the driver must apply its delay individually,
    which a shared carrier could not express).  Channel order - and
    therefore per-link FIFO - is preserved exactly: the output is a list
    of ``(wire, extra)`` pairs in the original copy order, where ``wire``
    is either a single message or a batch.
    """
    out = []
    run = []

    def close_run() -> None:
        if not run:
            return
        if len(run) == 1:
            out.append((run[0], 0.0))
        else:
            out.append((MessageBatch(tuple(run)), 0.0))
        run.clear()

    for wire, extra in copies:
        if extra:
            close_run()
            out.append((wire, extra))
            continue
        run.append(wire)
        if len(run) >= limit:
            close_run()
    close_run()
    return out


class BatchAccumulator:
    """Per-destination batch builder over one sender's ``LinkCore``.

    A driver feeds it messages with :meth:`add` - each one runs through
    the core's full fault pipeline (:meth:`LinkCore.outbound
    <repro.links.LinkCore.outbound>`, so drops, duplicates, and per-link
    counters apply per *message*, exactly as without batching) - and
    :meth:`flush` hands back the accumulated wire copies coalesced into
    carriers for the destination, in channel order.
    """

    def __init__(self, core, src, limit: int = BATCH_LIMIT) -> None:
        self.core = core
        self.src = src
        self.limit = limit
        self._pending = {}

    def add(self, dst, message) -> bool:
        """Admit ``message`` for ``dst``; False across a partition cut."""
        transmission = self.core.outbound(self.src, dst, message)
        if transmission is None:
            return False
        self._pending.setdefault(dst, []).extend(transmission.copies)
        return True

    def flush(self, dst):
        """The coalesced carriers pending for ``dst`` (and clear them)."""
        copies = self._pending.pop(dst, None)
        if not copies:
            return []
        return coalesce_copies(copies, self.limit)

    def pending(self, dst) -> int:
        return len(self._pending.get(dst, ()))


__all__ = ["BATCH_LIMIT", "BatchAccumulator", "MessageBatch", "coalesce_copies"]

