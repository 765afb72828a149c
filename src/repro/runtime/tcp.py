"""Length-prefixed TCP transport for cross-process deployments.

``TcpTransport`` is the socket *driver* over the unified
:class:`~repro.links.LinkCore`: it gives a GCS node a real network face
- it listens on a local endpoint, opens connections to peers lazily,
and frames pickled wire messages with a 4-byte big-endian length prefix
- while all link semantics (the partition/reachability matrix, fault
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

Sockets report nothing about what is in transit, and they need not: a
wire copy enters the core's in-flight ledger when ``send_many`` admits
it and leaves it when the receiving transport's ``inbound_batch``
resolves its frame (delivered, deduplicated, or dropped at a cut) or a
failed write declares it ``lost``.  :meth:`TcpFabric.quiesce` waits for
that ledger and the outbox backlog to reach zero together - counted,
with no wall-clock window deciding that the fabric is idle.

Security note: frames are deserialised with :mod:`pickle`, so this
transport must only be used among mutually trusted processes (it is meant
for the examples and tests of this reproduction, not a hostile WAN).
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.chaos.faults import FaultInjector
from repro.errors import TransportError
from repro.links import BatchAccumulator, LinkCore, MessageBatch
from repro.runtime.settle import await_quiescent
from repro.types import ProcessId

Handler = Callable[[ProcessId, Any], None]

_LENGTH = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024


def encode_frame(pid: ProcessId, message: Any) -> bytes:
    body = pickle.dumps((pid, message), protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > _MAX_FRAME:
        raise TransportError(f"frame of {len(body)} bytes exceeds limit")
    return _LENGTH.pack(len(body)) + body


def encode_batch(pid: ProcessId, copies: Iterable[Any]) -> bytes:
    """Frame a run of wire copies as one length-prefixed pickle.

    A batch is one frame - one ``pickle.dumps``, one socket write - and
    therefore atomic on the wire: the receiver either reads the whole
    run (and unpacks it through
    :meth:`~repro.links.LinkCore.inbound_batch`) or none of it.  A
    single-copy run degenerates to the plain :func:`encode_frame`
    format, so mixed traffic needs no protocol negotiation.
    """
    copies = tuple(copies)
    if len(copies) == 1:
        return encode_frame(pid, copies[0])
    return encode_frame(pid, MessageBatch(copies))


async def read_frame(reader: asyncio.StreamReader) -> Tuple[ProcessId, Any]:
    header = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > _MAX_FRAME:
        raise TransportError(f"frame of {length} bytes exceeds limit")
    body = await reader.readexactly(length)
    return pickle.loads(body)


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
        self._writers: Dict[ProcessId, asyncio.StreamWriter] = {}
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
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
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
        share one :func:`encode_batch` frame: one pickle, one syscall,
        whatever the run length.
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
            writer = await self._writer_to(dst)
            if writer is None:
                continue  # unreachable: a suffix is lost, as CO_RFIFO allows
            batch = BatchAccumulator(self.core, self.pid)
            for message in messages:
                batch.add(dst, message)
            carriers = batch.flush(dst)
            written = 0
            try:
                for wire, extra in carriers:
                    if extra:
                        # Loss penalty / jitter: hold the frame back.  TCP's
                        # own FIFO keeps the per-connection order intact.
                        await asyncio.sleep(extra)
                    writer.write(encode_batch(self.pid, _copies(wire)))
                    written += 1
                await writer.drain()
            except (ConnectionError, OSError):
                self._drop_writer(dst)
                unwritten = [copy for wire, _ in carriers[written:] for copy in _copies(wire)]
                self.core.lost(self.pid, dst, unwritten)

    async def _writer_to(self, dst: ProcessId) -> Optional[asyncio.StreamWriter]:
        writer = self._writers.get(dst)
        if writer is not None and not writer.is_closing():
            return writer
        address = self.peers.get(dst)
        if address is None:
            return None
        try:
            reader, writer = await asyncio.open_connection(*address)
        except (ConnectionError, OSError):
            return None
        self._writers[dst] = writer
        return writer

    def _drop_writer(self, dst: ProcessId) -> None:
        writer = self._writers.pop(dst, None)
        if writer is not None:
            writer.close()

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.append(task)
        try:
            while not self._closed:
                src, wire = await read_frame(reader)
                # Every frame is a carrier - a single copy is a batch of
                # one.  The core drops a frame that crossed a partition
                # cut whole (kernel buffers can hold it past the split),
                # deduplicates wire copies, and resolves each in its
                # ledger.
                for payload in self.core.inbound_batch(
                    src, self.pid, _copies(wire), check_topology=True
                ):
                    self.handler(src, payload)
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

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        self._backlog += 1
        self._outboxes[src].put_nowait((targets, message))

    async def _pump(self, pid: ProcessId) -> None:
        outbox = self._outboxes[pid]
        transport = self._transports[pid]
        await transport.start()
        while True:
            targets, message = await outbox.get()
            run = [message]
            # Coalesce the backlog: consecutive outbox entries towards the
            # same target set leave as one batched frame per destination
            # (send_many), instead of one pickle+write per message.  Queue
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
        for task in self._pumps.values():
            task.cancel()
        await asyncio.gather(*self._pumps.values(), return_exceptions=True)
        self._pumps.clear()
        for transport in self._transports.values():
            await transport.close()
