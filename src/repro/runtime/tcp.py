"""Length-prefixed TCP transport for cross-process deployments.

``TcpTransport`` is the socket *driver* over the unified
:class:`~repro.links.LinkCore`: it gives a GCS node a real network face
- it listens on a local endpoint, opens connections to peers lazily,
and frames wire messages in the :mod:`repro.wire` format - while all
link semantics (the partition/reachability matrix, fault
application, receiver-side deduplication, message counters) live in
the core.  TCP supplies the FIFO, gap-free
delivery CO_RFIFO requires per connection; a broken connection
corresponds to CO_RFIFO losing a suffix, after which the membership
service is expected to reconfigure - the same assumption the paper
makes of its datagram substrate [36].

``TcpFabric`` is the socket leg of :class:`~repro.runtime.fabric.Fabric`:
it owns the address book and, per attached process, one transport plus
an outbox whose pump task serialises the process's carriers onto the
sockets; attach, quiescence, handler failures and ``close`` are the base
class's.  Every transport of a fabric shares its ``core``, so a single
partition matrix (and a single counter set) covers the whole
deployment.  :meth:`TcpFabric.send` adds each copy the base admitted to
an open :class:`~repro.links.Carrier` queued on the sender's outbox;
:meth:`TcpTransport.send_many` frames and writes one such carrier to
one peer, and an accepted connection hands every frame to the fabric's
``_hand_over`` as a run of one group, so a receiving end-point drains at
most once per frame.

The fabric paces application senders (:meth:`TcpFabric.pace`): a
``GcsNode.send`` yields to the loop only once one of its carriers is
full (``BATCH_LIMIT`` copies), so a burst of sends is queued whole
before the pump wakes and leaves as one batch frame per peer - one
encode, one write and one read for the run instead of one per message.
``close`` lets the admitted copies resolve before it stops the pumps,
so a send that returned is never silently dropped.

Sockets report nothing about what is in transit, and they need not: a
wire copy enters the core's in-flight ledger when ``send`` admits it and
leaves it when the receiving transport's ``inbound_batch`` resolves its
frame (delivered, deduplicated, or dropped at a cut) or the sending
transport declares it ``lost`` (a cut link, an unreachable peer, a
failed write).  ``quiesce`` waits for that ledger to reach zero - the
hub's wait, counted, with no wall-clock window deciding that the fabric
is idle.

Wire format: every frame is a 4-byte big-endian body length followed by
one :mod:`repro.wire` record - a closed, versioned, struct-packed schema
of the fabric's message types and plain values, decoded only into those
types.  Each outbound connection owns one
:class:`~repro.wire.FrameEncoder` and each accepted connection one
:class:`~repro.wire.FrameDecoder`; the two keep the same tables, so the
sender's pid and the format version travel once per connection and a
view travels whole once, then as a two-byte id.  An application payload
outside the wire value set is refused where it is sent
(:meth:`TcpFabric.check_payload`, a ``TypeError`` or ``ValueError`` to
the caller), before its sender delivers and indexes it.  A batch the
encoder refuses is framed in halves, so batching never fails a message
that frames on its own.  A message the encoder still cannot frame - one past the size
limit by itself - is counted on the core (``LinkCore.frame_errors``)
and it and the rest of its carrier are ``lost``; the connection carries
on, and the sender's pump with it.
Past the size limit a peer's stream therefore has a gap on a live link,
which a chaos episode reports as ``RUN-FRAME``.  Bytes that are not a
frame end in a counted :class:`~repro.errors.FrameError` and a closed
connection, never in a traceback.  Between two transports of one build
a decode failure would be a codec bug: the copies still on that
connection cannot be accounted, so a settle then times out, and a chaos
episode reports the frame error (``RUN-FRAME``) as its finding.  An
exception a handler raises is neither: the connection reads on, the
fabric keeps the first one, ``quiesce`` raises it at once and ``close``
again after releasing tasks and sockets.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Set, Tuple

from repro.chaos.faults import FaultInjector
from repro.errors import FrameError
from repro.links import BATCH_LIMIT, Carrier, Link, LinkCore, MessageBatch
from repro.runtime.fabric import Fabric
from repro.types import ProcessId
from repro.wire import HEADER, FrameDecoder, FrameEncoder, body_length, check_payload

#: What a failed encode raises: a value outside the schema (``TypeError``
#: / ``ValueError``) or a frame past the size limit (``FrameError``).
_UNFRAMEABLE = (FrameError, TypeError, ValueError)


def encode_frame(pid: ProcessId, message: Any, encoder: Optional[FrameEncoder] = None) -> bytes:
    """``message`` from ``pid`` as one length-prefixed frame.

    With a connection's ``encoder`` the frame leans on what that
    connection already carried; without one it is self-contained, and
    :func:`read_frame` without a decoder reads it on its own.
    """
    if encoder is None:
        encoder = FrameEncoder(pid)
    return encoder.frame(message)


def encode_batch(
    pid: ProcessId, copies: Iterable[Any], encoder: Optional[FrameEncoder] = None
) -> bytes:
    """Frame a run of wire copies as one length-prefixed frame.

    A batch is one frame - one encode, one socket write - and therefore
    atomic on the wire: the receiver either reads the whole run (and
    unpacks it through :meth:`~repro.links.LinkCore.inbound_batch`) or
    none of it.  A single-copy run degenerates to the plain
    :func:`encode_frame` format, so mixed traffic needs no protocol
    negotiation.
    """
    copies = tuple(copies)
    if len(copies) == 1:
        return encode_frame(pid, copies[0], encoder)
    return encode_frame(pid, MessageBatch(copies), encoder)


async def read_frame(
    reader: asyncio.StreamReader, decoder: Optional[FrameDecoder] = None
) -> Tuple[ProcessId, Any]:
    """The next ``(sender pid, wire)`` on a connection; :class:`FrameError`
    for bytes that are not a frame.  Without the connection's ``decoder``
    the frame must be self-contained."""
    if decoder is None:
        decoder = FrameDecoder()
    header = await reader.readexactly(HEADER.size)
    body = await reader.readexactly(body_length(header))
    return decoder.decode(body)


def _copies(wire: Any) -> Tuple[Any, ...]:
    """The wire copies one carrier holds: a batch's run, or itself."""
    return wire.copies if isinstance(wire, MessageBatch) else (wire,)


class TcpTransport:
    """One process's TCP endpoint on a fabric: listener plus lazy
    outbound connections.

    The socket is bound and listening as soon as the transport exists, so
    its address is known - and peers may dial it - without awaiting
    anything; a peer that connects before :meth:`start` runs the accept
    loop waits in the kernel's backlog and is served from there.  The
    transport shares its fabric's ``core``, dials from the fabric's
    address book (``peers``) and gives every frame it reads to the
    fabric's ``hand_over`` as a run of one group, which keeps a handler's
    exception; the connection reads on.
    """

    def __init__(
        self,
        pid: ProcessId,
        hand_over: Callable[..., None],
        *,
        core: LinkCore,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.pid = pid
        self.hand_over = hand_over
        self._socket = socket.create_server((host, port))
        self.host, self.port = self._socket.getsockname()[:2]
        self.core = core
        self.peers: Dict[ProcessId, Tuple[str, int]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        # Per peer: the outbound socket and the encoder whose tables the
        # peer's decoder for that socket mirrors.
        self._connections: Dict[ProcessId, Tuple[asyncio.StreamWriter, FrameEncoder]] = {}
        self._reader_tasks: list = []
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Start accepting on the already-listening socket."""
        self._server = await asyncio.start_server(self._accept, sock=self._socket)
        return self.host, self.port

    async def close(self) -> None:
        self._closed = True
        for writer, _encoder in self._connections.values():
            writer.close()
        self._connections.clear()
        for task in self._reader_tasks:
            task.cancel()
        await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        self._reader_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._socket.close()  # a no-op once the server has closed it

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    async def send_many(self, dst: ProcessId, copies: List[Any]) -> None:
        """Frame and write one carrier of admitted wire copies to ``dst``.

        The copies entered the core's ledger when the fabric admitted
        them; here each one reaches the socket or is declared ``lost``.
        A link the matrix has cut since is not dialled (a partition must
        not leak real connections across the emulated split), and an
        unreachable peer or a failed write loses the unwritten rest, as
        CO_RFIFO allows.  A carrier the codec refuses is framed in halves
        instead (:meth:`_frames`); a single copy it refuses is counted as
        a frame error, and it and the rest of the carrier are ``lost``;
        the connection carries on.  Only the encode is guarded so: a
        transport call raising anything else is not a frame error.
        """
        written = 0
        if self.core.connected(self.pid, dst):
            connection = await self._connection_to(dst)
            if connection is not None:
                writer, encoder = connection
                try:
                    for frame, count in self._frames(copies, encoder):
                        writer.write(frame)
                        written += count
                    await writer.drain()
                except (ConnectionError, OSError):
                    self._drop_connection(dst)
        if written < len(copies):
            self.core.lost(self.pid, dst, copies[written:])

    def _frames(
        self, run: List[Any], encoder: FrameEncoder
    ) -> Generator[Tuple[bytes, int], None, bool]:
        """``(frame, copies in it)`` for a run: one frame, or - if the codec
        refuses the whole run - its two halves', recursively, so copies
        that frame one by one never fail for having been batched.

        A copy the codec refuses on its own is counted as a frame error
        and ends the run there (the generator returns False).  Each frame
        is encoded only once the one before it has been written, so the
        encoder's tables never run ahead of the socket.
        """
        try:
            frame = encode_batch(self.pid, run, encoder)
        except _UNFRAMEABLE as exc:
            if len(run) == 1:
                self.core.frame_error(exc.reason if isinstance(exc, FrameError) else "unencodable")
                return False
            half = len(run) // 2
            return (yield from self._frames(run[:half], encoder)) and (
                yield from self._frames(run[half:], encoder)
            )
        yield frame, len(run)
        return True

    async def _connection_to(
        self, dst: ProcessId
    ) -> Optional[Tuple[asyncio.StreamWriter, FrameEncoder]]:
        connection = self._connections.get(dst)
        if connection is not None and not connection[0].is_closing():
            return connection
        address = self.peers.get(dst)
        if address is None:
            return None
        try:
            _reader, writer = await asyncio.open_connection(*address)
        except (ConnectionError, OSError):
            return None
        connection = self._connections[dst] = (writer, FrameEncoder(self.pid))
        return connection

    def _drop_connection(self, dst: ProcessId) -> None:
        connection = self._connections.pop(dst, None)
        if connection is not None:
            connection[0].close()

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.append(task)
        decoder = FrameDecoder()
        try:
            while not self._closed:
                src, wire = await read_frame(reader, decoder)
                # Every frame is a carrier - a single copy is a batch of
                # one - and a run of one group.  The core drops a frame
                # that crossed a partition cut whole (kernel buffers can
                # hold it past the split), deduplicates wire copies, and
                # resolves each in its ledger.
                payloads = self.core.inbound_batch(
                    src, self.pid, _copies(wire), check_topology=True
                )
                self.hand_over(self.pid, [(src, iter(payloads))])
        except FrameError as exc:
            # Not a frame of this format: count it and hang up; the
            # decoder's tables can no longer be trusted.
            self.core.frame_error(exc.reason)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # peer went away: CO_RFIFO may lose the suffix
        except asyncio.CancelledError:
            pass  # shutdown cancels pending reads; nothing to report
        finally:
            writer.close()


class TcpFabric(Fabric):
    """Every attached process behind a loopback socket of its own.

    Clients and membership servers are the same kind of thing here: a
    handler, a listening :class:`TcpTransport`, and an outbox.  Sends
    are produced synchronously (by end-point runners, by servers) but
    must be awaited on sockets, so :meth:`send` queues each admitted
    copy on an open :class:`~repro.links.Carrier` in the sender's
    outbox, and one pump task per process - which first starts the
    transport's accept loop - hands the carriers to the transport in
    order.  A copy is in the core's ledger from :meth:`send` on, so the
    ledger alone says whether anything is still on its way.
    """

    def __init__(self, *, faults: Optional[FaultInjector] = None) -> None:
        super().__init__(faults=faults)
        # The address book; every transport dials from this one dict.
        self.addresses: Dict[ProcessId, Tuple[str, int]] = {}
        self._transports: Dict[ProcessId, TcpTransport] = {}
        self._outboxes: Dict[ProcessId, asyncio.Queue] = {}
        # Newest (possibly still open) carrier per link.
        self._tails: Dict[Link, Carrier] = {}
        # Senders one of whose carriers filled up since they last paced.
        self._full: Set[ProcessId] = set()

    def _open(self, pid: ProcessId) -> None:
        transport = TcpTransport(pid, self._hand_over, core=self.core)
        transport.peers = self.addresses
        self._transports[pid] = transport
        self._outboxes[pid] = asyncio.Queue()
        self.addresses[pid] = (transport.host, transport.port)

    # A payload outside the wire value set is a TypeError at the sender,
    # before it is indexed, never a frame error after.
    check_payload = staticmethod(check_payload)

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        outbox = self._outboxes[src]
        for dst, transmission in self._admitted(src, targets, message):
            link = (src, dst)
            for wire, extra in transmission.copies:
                tail = self._tails.get(link)
                if tail is None or not tail.join(wire, extra):
                    tail = self._tails[link] = Carrier(wire, extra)
                    outbox.put_nowait((dst, tail))
                elif len(tail.copies) == BATCH_LIMIT:
                    self._full.add(src)

    async def pace(self, src: ProcessId) -> None:
        """Yield only once one of ``src``'s carriers is full.

        The pump then finds a whole burst queued and writes it as one
        batch frame per peer; readers and other pumps still run at least
        once per ``BATCH_LIMIT`` sends of a long sender loop.
        """
        if src in self._full:
            self._full.discard(src)
            await asyncio.sleep(0)

    async def _pump(self, pid: ProcessId) -> None:
        outbox = self._outboxes[pid]
        transport = self._transports[pid]
        await transport.start()
        while True:
            dst, carrier = await outbox.get()
            carrier.open = False
            if carrier.extra:
                # Loss penalty / jitter: hold the carrier back.  The pump
                # is the sender's one queue, so per-link FIFO holds.
                await asyncio.sleep(carrier.extra)
            await transport.send_many(dst, carrier.copies)

    async def _release(self) -> None:
        for transport in self._transports.values():
            await transport.close()
