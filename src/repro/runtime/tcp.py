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

Security note: frames are deserialised with :mod:`pickle`, so this
transport must only be used among mutually trusted processes (it is meant
for the examples and tests of this reproduction, not a hostile WAN).
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.chaos.faults import FaultInjector
from repro.errors import SettleTimeoutError, TransportError
from repro.links import BatchAccumulator, LinkCore, MessageBatch
from repro.runtime.settle import settle_timeout as env_settle_timeout
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
            try:
                for wire, extra in batch.flush(dst):
                    if extra:
                        # Loss penalty / jitter: hold the frame back.  TCP's
                        # own FIFO keeps the per-connection order intact.
                        await asyncio.sleep(extra)
                    if isinstance(wire, MessageBatch):
                        writer.write(encode_batch(self.pid, wire.copies))
                    else:
                        writer.write(encode_frame(self.pid, wire))
                await writer.drain()
            except (ConnectionError, OSError):
                self._drop_writer(dst)

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
                # The core drops frames that crossed a partition cut
                # (kernel buffers can hold them past the split) and
                # deduplicates wire copies.  A batched frame unpacks
                # through the core too - per-message accounting, atomic
                # topology check for the whole batch.
                if isinstance(wire, MessageBatch):
                    for payload in self.core.inbound_batch(
                        src, self.pid, wire.copies, check_topology=True
                    ):
                        self.handler(src, payload)
                    continue
                payload = self.core.inbound(src, self.pid, wire, check_topology=True)
                if payload is None:
                    continue
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
    loop - writes the backlog out in order.
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
                await transport.send_many(targets, run)
                targets, run = next_targets, [next_message]
            await transport.send_many(targets, run)

    async def quiesce(self, timeout: Optional[float] = None) -> None:
        """Wait until the fabric stops making progress.

        Sockets give no global in-flight counter, so quiescence is a
        bounded stability window: no wire copy sent or delivered and
        empty outboxes for 80 ms.  Raises
        :class:`SettleTimeoutError` when the window never closes within
        ``timeout`` (default: the ``$REPRO_SETTLE_TIMEOUT``-scaled settle
        deadline).
        """
        if timeout is None:
            timeout = env_settle_timeout(10.0)
        idle = 0.08
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        stats = self.core.stats

        def activity() -> Tuple[int, int, int]:
            return (
                sum(stats.sent.values()),
                sum(stats.delivered.values()),
                sum(outbox.qsize() for outbox in self._outboxes.values()),
            )

        last = activity()
        last_change = loop.time()
        while True:
            await asyncio.sleep(idle / 4)
            current = activity()
            if current != last:
                last, last_change = current, loop.time()
            elif current[2] == 0 and loop.time() - last_change >= idle:
                return
            if loop.time() >= deadline:
                raise SettleTimeoutError(
                    f"TCP fabric still active after {timeout:.1f}s "
                    f"(sent={current[0]}, delivered={current[1]}, "
                    f"outboxes={current[2]}); {stats.describe_tier_links()}; "
                    f"busiest links: {stats.describe_links()}"
                )

    async def close(self) -> None:
        for task in self._pumps.values():
            task.cancel()
        await asyncio.gather(*self._pumps.values(), return_exceptions=True)
        self._pumps.clear()
        for transport in self._transports.values():
            await transport.close()
