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

``TcpFabric`` is the socket :class:`~repro.runtime.cluster.Fabric`: it
owns the address book and, per attached process, one transport plus an
outbox whose pump task serialises the process's sends onto the sockets.
Every transport of a fabric shares its ``core``, so a single partition
matrix (and a single counter set) covers the whole deployment; a
standalone transport creates its own.

The fabric paces application senders (:meth:`TcpFabric.pace`): a
``GcsNode.send`` yields to the loop only once its outbox holds a full
carrier (``BATCH_LIMIT`` messages), so a burst of sends is queued whole
before the pump wakes and leaves as one batch frame per peer - one
encode, one write and one read for the run instead of one per message.
:meth:`TcpFabric.close` writes whatever the outboxes still hold before
it stops the pumps, so a send that returned is never silently dropped.

Sockets report nothing about what is in transit, and they need not: a
wire copy enters the core's in-flight ledger when ``send_many`` admits
it and leaves it when the receiving transport's ``inbound_batch``
resolves its frame (delivered, deduplicated, or dropped at a cut) or a
failed write declares it ``lost``.  :meth:`TcpFabric.quiesce` waits for
that ledger and the outbox backlog to reach zero together - counted,
with no wall-clock window deciding that the fabric is idle.

Wire format: every frame is a 4-byte big-endian body length followed by
one :mod:`repro.wire` record - a closed, versioned, struct-packed schema
of the fabric's message types and plain values, decoded only into those
types.  Each outbound connection owns one
:class:`~repro.wire.FrameEncoder` and each accepted connection one
:class:`~repro.wire.FrameDecoder`; the two keep the same tables, so the
sender's pid and the format version travel once per connection and a
view travels whole once, then as a two-byte id.  An application payload
outside the wire value set is refused where it is sent
(:meth:`TcpFabric.check_payload`, a ``TypeError`` to the caller),
before its sender delivers and indexes it.  A batch the encoder refuses
is framed in halves, so batching never fails a message that frames on
its own.  A message the encoder still cannot frame - one past the size
limit by itself - is counted on the core (``LinkCore.frame_errors``)
and it and the rest of its run are ``lost``; the connection carries on,
and the sender's pump with it.
Past the size limit a peer's stream therefore has a gap on a live link,
which a chaos episode reports as ``RUN-FRAME``.  Bytes that are not a
frame end in a counted :class:`~repro.errors.FrameError` and a closed
connection, never in a traceback.  Between two transports of one build
a decode failure would be a codec bug: the copies still on that
connection cannot be accounted, so a settle then times out, and a chaos
episode reports the frame error (``RUN-FRAME``) as its finding.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.chaos.faults import FaultInjector
from repro.errors import FrameError, SettleTimeoutError
from repro.links import BATCH_LIMIT, BatchAccumulator, LinkCore, MessageBatch
from repro.runtime.settle import await_quiescent, await_settled
from repro.types import ProcessId
from repro.wire import HEADER, FrameDecoder, FrameEncoder, body_length, check_payload

Handler = Callable[[ProcessId, Any], None]

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
    """One process's TCP endpoint: listener plus lazy outbound connections.

    The socket is bound and listening as soon as the transport exists, so
    its address is known - and peers may dial it - without awaiting
    anything; a peer that connects before :meth:`start` runs the accept
    loop waits in the kernel's backlog and is served from there.
    """

    def __init__(
        self,
        pid: ProcessId,
        handler: Handler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        faults: Optional[FaultInjector] = None,
        core: Optional[LinkCore] = None,
    ) -> None:
        self.pid = pid
        self.handler = handler
        self._socket = socket.create_server((host, port))
        self.host, self.port = self._socket.getsockname()[:2]
        self.core = core if core is not None else LinkCore(faults=faults)
        self.core.ensure(pid)
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

    def set_peers(self, peers: Dict[ProcessId, Tuple[str, int]]) -> None:
        """Address book: where each peer process listens."""
        self.peers = dict(peers)

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

    async def send(self, targets: Iterable[ProcessId], message: Any) -> None:
        await self.send_many(targets, (message,))

    async def send_many(self, targets: Iterable[ProcessId], messages: Iterable[Any]) -> None:
        """FIFO-multicast a run of messages, batch-framed per destination.

        Every message runs through the core's fault pipeline
        individually (drops, duplicates, and counters stay per-message),
        but consecutive zero-delay wire copies towards one destination
        share one :func:`encode_batch` frame: one encode, one syscall,
        whatever the run length.  A carrier the codec refuses is framed
        in halves instead (:meth:`_frames`); a single copy it refuses is
        counted as a frame error, and it and the rest of the run are
        ``lost``; the connection carries on.  Only the encode is guarded
        so: a transport call raising anything else is not a frame error.
        """
        messages = list(messages)
        if not messages:
            return
        # Sorted fan-out: hash-order frozenset iteration must not decide
        # same-instant delivery order (traces replay byte-for-byte).
        for dst in sorted(targets):
            # Check the matrix before dialling: a partition cut must not
            # leak real connections across the emulated split.
            if dst == self.pid or not self.core.connected(self.pid, dst):
                continue
            connection = await self._connection_to(dst)
            if connection is None:
                continue  # unreachable: a suffix is lost, as CO_RFIFO allows
            writer, encoder = connection
            batch = BatchAccumulator(self.core, self.pid)
            for message in messages:
                batch.add(dst, message)
            carriers = batch.flush(dst)
            copies = [c for wire, _ in carriers for c in _copies(wire)]
            offered = written = 0  # copies given to the codec / to the socket
            try:
                for wire, extra in carriers:
                    if extra:
                        # Loss penalty / jitter: hold the frame back.  TCP's
                        # own FIFO keeps the per-connection order intact.
                        await asyncio.sleep(extra)
                    run = _copies(wire)
                    offered += len(run)
                    for frame, count in self._frames(run, encoder):
                        writer.write(frame)
                        written += count
                    if written < offered:
                        break  # a copy the codec refused
                await writer.drain()
            except (ConnectionError, OSError):
                self._drop_connection(dst)
            if written < len(copies):
                # The copies that never reached the wire.
                self.core.lost(self.pid, dst, copies[written:])

    def _frames(
        self, run: Tuple[Any, ...], encoder: FrameEncoder
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
                # one.  The core drops a frame that crossed a partition
                # cut whole (kernel buffers can hold it past the split),
                # deduplicates wire copies, and resolves each in its
                # ledger.
                for payload in self.core.inbound_batch(
                    src, self.pid, _copies(wire), check_topology=True
                ):
                    self.handler(src, payload)
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


class TcpFabric:
    """Every attached process behind a loopback socket of its own.

    Clients and membership servers are the same kind of thing here: a
    handler, a listening :class:`TcpTransport`, and an outbox.  Sends
    are produced synchronously (by end-point runners, by servers) but
    must be awaited on sockets, so :meth:`send` only enqueues and one
    pump task per process - which first starts the transport's accept
    loop - writes the backlog out in order.  A message counts as backlog
    from :meth:`send` until the ``send_many`` that admits it to the core
    returns, so backlog plus ledger covers it the whole way.
    """

    def __init__(self, *, faults: Optional[FaultInjector] = None) -> None:
        # One link core shared by every transport of the fabric: one
        # partition matrix, one fault pipeline, one counter set.
        self.core = LinkCore(faults=faults)
        # The address book; every transport dials from this one dict.
        self.addresses: Dict[ProcessId, Tuple[str, int]] = {}
        self._transports: Dict[ProcessId, TcpTransport] = {}
        self._outboxes: Dict[ProcessId, asyncio.Queue] = {}
        self._pumps: Dict[ProcessId, asyncio.Task] = {}
        self._backlog = 0
        self._quiet = asyncio.Event()
        self.core.on_idle(self._quiet.set)

    def attach(self, pid: ProcessId, handler: Handler) -> None:
        if pid in self._transports:
            raise ValueError(f"duplicate process {pid!r}")
        transport = TcpTransport(pid, handler, core=self.core)
        transport.peers = self.addresses
        self._transports[pid] = transport
        self._outboxes[pid] = asyncio.Queue()
        self.addresses[pid] = (transport.host, transport.port)
        self._pumps[pid] = asyncio.get_running_loop().create_task(self._pump(pid))

    # A payload outside the wire value set is a TypeError at the sender,
    # before it is indexed, never a frame error after.
    check_payload = staticmethod(check_payload)

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        self._backlog += 1
        self._outboxes[src].put_nowait((targets, message))

    async def pace(self, src: ProcessId) -> None:
        """Yield only once ``src``'s outbox holds a full carrier.

        The pump then finds a whole burst queued and writes it as one
        batch frame per peer; readers and other pumps still run at least
        once per ``BATCH_LIMIT`` sends of a long sender loop.
        """
        if self._outboxes[src].qsize() >= BATCH_LIMIT:
            await asyncio.sleep(0)

    async def _pump(self, pid: ProcessId) -> None:
        outbox = self._outboxes[pid]
        transport = self._transports[pid]
        await transport.start()
        while True:
            targets, message = await outbox.get()
            run = [message]
            # Coalesce the backlog: consecutive outbox entries towards the
            # same target set leave as one batched frame per destination
            # (send_many), instead of one encode+write per message.  Queue
            # order is preserved, so per-connection FIFO is untouched.
            while True:
                try:
                    next_targets, next_message = outbox.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if next_targets == targets:
                    run.append(next_message)
                    continue
                await self._send_run(transport, targets, run)
                targets, run = next_targets, [next_message]
            await self._send_run(transport, targets, run)

    async def _send_run(
        self, transport: TcpTransport, targets: Iterable[ProcessId], run: List[Any]
    ) -> None:
        try:
            await transport.send_many(targets, run)
        finally:
            self._backlog -= len(run)
            if not self._backlog:
                self._quiet.set()

    async def quiesce(self, timeout: Optional[float] = None) -> None:
        """Wait until no message is queued in an outbox or in flight.

        One predicate over the core's in-flight ledger plus the outbox
        backlog - the hub's, with the backlog added.  Raises
        :class:`~repro.errors.SettleTimeoutError` if traffic never stops
        within ``timeout`` seconds (default: the settle deadline).
        """
        await await_quiescent(
            self.core, self._quiet, lambda: self._backlog, timeout=timeout
        )

    async def close(self) -> None:
        """Write the outbox backlog to the sockets, then release tasks
        and sockets.

        A send its caller has returned from may still sit in an outbox
        (:meth:`pace` need not yield); it is framed - or counted as a
        frame error - before its pump is cancelled.  The wait is on the
        backlog count; only a pump that never drains (past the settle
        deadline) has its backlog cancelled with it.
        """
        try:
            await await_settled(lambda: not self._backlog, self._quiet)
        except SettleTimeoutError:
            pass  # close still releases everything; a settle names the stall
        for task in self._pumps.values():
            task.cancel()
        await asyncio.gather(*self._pumps.values(), return_exceptions=True)
        self._pumps.clear()
        for transport in self._transports.values():
            await transport.close()
