"""Tests for the TCP fabric and its transport (loopback only)."""

import asyncio
import logging

import pytest

from repro import wire
from repro.chaos.faults import FaultInjector, FaultModel
from repro.core.messages import AppMsg, ViewMsg
from repro.errors import TransportError
from repro.links import BATCH_LIMIT, LinkCore
from repro.runtime import TcpDeployment, tcp
from repro.runtime.tcp import TcpFabric, encode_frame
from repro.types import make_view
from repro.wire import HEADER, FrameEncoder
from tests.conftest import each_message


def run(coro):
    return asyncio.run(coro)


def test_frame_roundtrip_via_sockets():
    async def scenario():
        received = asyncio.Queue()
        fabric = TcpFabric()
        fabric.attach("a", lambda run: None)
        fabric.attach("b", each_message(lambda src, m: received.put_nowait((src, m))))
        view = make_view(1, ["a", "b"])
        try:
            fabric.send("a", ["b"], ViewMsg(view))
            fabric.send("a", ["b"], AppMsg("payload", view, 1))
            first = await asyncio.wait_for(received.get(), 2)
            second = await asyncio.wait_for(received.get(), 2)
            assert first == ("a", ViewMsg(view))
            assert second[1].payload == "payload"
        finally:
            await fabric.close()

    run(scenario())


def test_send_to_unknown_peer_is_dropped():
    async def scenario():
        fabric = TcpFabric()
        fabric.attach("a", lambda run: None)
        try:
            fabric.send("a", ["ghost"], "m")  # no address: nothing admitted, no error
            assert fabric.core.in_flight == 0
            await fabric.quiesce(timeout=2)
        finally:
            await fabric.close()

    run(scenario())


def test_send_to_self_skipped():
    async def scenario():
        inbox = []
        fabric = TcpFabric()
        fabric.attach("a", each_message(lambda src, m: inbox.append(m)))
        try:
            fabric.send("a", ["a"], "loop")
            await fabric.quiesce(timeout=2)
            await asyncio.sleep(0.05)
            assert inbox == []
            assert not fabric.core.stats.sent
        finally:
            await fabric.close()

    run(scenario())


def test_oversized_frame_rejected():
    big = "x" * (70 * 1024 * 1024)
    with pytest.raises(TransportError):
        encode_frame("a", big)


def test_fabric_quiesce_waits_for_a_held_frame():
    """A frame held back by a retransmission penalty (~120 ms at the
    runtimes' time scale) is in flight until it arrives: quiescence is
    counted on the core's ledger, not guessed from a quiet interval."""
    faults = FaultInjector(FaultModel(drop=1.0, penalty=40.0, seed=1), time_scale=0.003)

    async def scenario():
        fabric = TcpFabric(faults=faults)
        inbox = []
        fabric.attach("a", lambda run: None)
        fabric.attach("b", each_message(lambda src, m: inbox.append(m)))
        fabric.send("a", ["b"], "held")
        try:
            await fabric.quiesce()
            assert inbox == ["held"]
            assert fabric.core.in_flight == 0
        finally:
            await fabric.close()

    run(scenario())


def test_failed_write_resolves_the_unwritten_copies():
    class BrokenWriter:
        def is_closing(self):
            return False

        def write(self, data):
            raise ConnectionResetError("peer went away")

        async def drain(self):
            pass

        def close(self):
            pass

    async def scenario():
        fabric = TcpFabric()
        fabric.attach("a", lambda run: None)
        fabric.attach("b", lambda run: None)
        transport = fabric._transports["a"]
        transport._connections["b"] = (BrokenWriter(), FrameEncoder("a"))
        try:
            fabric.send("a", ["b"], "m1")
            fabric.send("a", ["b"], "m2")
            await fabric.quiesce(timeout=2)
            assert fabric.core.in_flight == 0
            assert fabric.core.stats.bounced == {"str": 2}
            assert "b" not in transport._connections
        finally:
            await fabric.close()

    run(scenario())


def test_an_unframeable_message_does_not_stop_the_senders_pump(monkeypatch):
    """A frame over the size limit, or a fabric message outside the
    schema, is lost and counted; the pump carries on, so the next send is
    delivered and the ledger settles.  (An application payload outside
    the schema never gets here: ``GcsNode.send`` refuses it.)"""
    monkeypatch.setattr(wire, "MAX_FRAME", 1000)

    async def scenario():
        fabric = TcpFabric()
        inbox = []
        fabric.attach("a", lambda run: None)
        fabric.attach("b", each_message(lambda src, m: inbox.append(m)))
        try:
            for message in ("x" * 5000, "small", ["no", "wire", "type"], "last"):
                fabric.send("a", ["b"], message)
                await fabric.quiesce(timeout=2)
            assert inbox == ["small", "last"]
            assert fabric.core.frame_errors == {"oversized": 1, "unencodable": 1}
            assert fabric.core.stats.bounced == {"str": 1, "list": 1}
            assert fabric.core.in_flight == 0
            assert not fabric._pumps["a"].done()
        finally:
            await fabric.close()

    run(scenario())


def test_hostile_bytes_end_in_a_counted_close(caplog):
    """Garbage and an oversized length header: each is counted by reason
    and the connection is closed - no traceback reaches asyncio's log."""
    unknown_tag = encode_frame("x", None)[HEADER.size:-1] + b"\xfe"
    hostile = {
        "hello": HEADER.pack(5) + b"junk!",
        "oversized": HEADER.pack(1 << 31),
        "tag": HEADER.pack(len(unknown_tag)) + unknown_tag,
    }

    async def scenario():
        fabric = TcpFabric()
        fabric.attach("b", lambda run: None)
        try:
            await fabric.quiesce(timeout=2)  # the pump has started the listener
            for data in hostile.values():
                reader, writer = await asyncio.open_connection(*fabric.addresses["b"])
                writer.write(data)
                await writer.drain()
                try:
                    assert await asyncio.wait_for(reader.read(), 2) == b""
                except ConnectionResetError:
                    pass  # closed with our bytes unread: also a hang-up
                writer.close()
            assert fabric.core.frame_errors == {reason: 1 for reason in hostile}
        finally:
            await fabric.close()

    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        run(scenario())
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_multiple_receivers():
    async def scenario():
        boxes = {"b": asyncio.Queue(), "c": asyncio.Queue()}
        fabric = TcpFabric()
        fabric.attach("a", lambda run: None)
        for pid, box in boxes.items():
            fabric.attach(pid, each_message(lambda src, m, q=box: q.put_nowait(m)))
        try:
            fabric.send("a", ["b", "c"], "fanout")
            for box in boxes.values():
                assert await asyncio.wait_for(box.get(), 2) == "fanout"
        finally:
            await fabric.close()

    run(scenario())


# ----------------------------------------------------------------------
# pacing: a burst of application sends leaves as one frame per peer
# ----------------------------------------------------------------------


@pytest.fixture
def app_batches(monkeypatch):
    """Every carrier of application messages a receiving core unpacks:
    ``(src, dst, [payload, ...])`` in arrival order."""
    seen = []
    real = LinkCore.inbound_batch

    def spy(self, src, dst, copies, **options):
        apps = [c.payload for c in copies if isinstance(c, AppMsg)]
        if apps:
            seen.append((src, dst, apps))
        return real(self, src, dst, copies, **options)

    monkeypatch.setattr(LinkCore, "inbound_batch", spy)
    return seen


def test_a_burst_reaches_each_peer_as_one_batch(app_batches):
    """Fewer than ``BATCH_LIMIT`` sends in a row never yield on the socket
    fabric, so its pump finds the whole burst queued: one frame, one
    ``inbound_batch`` of all of it, at every peer."""
    burst = BATCH_LIMIT // 2

    async def scenario():
        async with TcpDeployment() as deployment:
            await deployment.setup(["a", "b", "c"])
            await deployment.settle()
            for i in range(burst):
                await deployment.send("a", i)
            await deployment.settle()
        assert app_batches == [("a", peer, list(range(burst))) for peer in ("b", "c")]

    run(scenario())


def test_interleaved_bursts_keep_per_sender_fifo(app_batches):
    """Two senders taking turns past a full carrier each: every peer gets
    each sender's run whole and in order, in a few batched frames."""
    count = BATCH_LIMIT + 5

    async def scenario():
        async with TcpDeployment() as deployment:
            pids = ["a", "b", "c"]
            await deployment.setup(pids)
            for i in range(count):
                await deployment.send("a", ("a", i))
                await deployment.send("b", ("b", i))
            await deployment.settle()
            for pid in pids:
                for sender in ("a", "b"):
                    got = [p[1] for s, p in deployment.delivered(pid) if s == sender]
                    assert got == list(range(count)), (pid, sender)
        links = {}
        for src, dst, apps in app_batches:
            links.setdefault((src, dst), []).append(apps)
        assert sorted(links) == [("a", "b"), ("a", "c"), ("b", "a"), ("b", "c")]
        for (src, _dst), carriers in links.items():
            assert [p for apps in carriers for p in apps] == [(src, i) for i in range(count)]
            assert len(carriers) < count // 4  # batched, not one frame per send

    run(scenario())


def test_a_long_sender_loop_lets_readers_run():
    """Pacing yields once per full carrier: a peer's socket reader makes
    progress - its ``delivered`` grows - while one sender is still
    looping."""
    count = 8 * BATCH_LIMIT

    async def scenario():
        async with TcpDeployment() as deployment:
            await deployment.setup(["a", "b"])
            reader = deployment.nodes["b"]
            before = len(reader.delivered)
            for i in range(count):
                await deployment.send("a", i)
            during = len(reader.delivered) - before
            await deployment.settle()
            assert 0 < during < count
            assert [payload for _sender, payload in reader.delivered[before:]] == list(range(count))

    run(scenario())


def test_close_writes_a_send_still_in_the_outbox(monkeypatch):
    """``send`` returns before its frame is written (pacing need not
    yield), so ``close`` must hand the outbox to the sockets before it
    stops the pumps."""
    framed = []
    real = tcp.encode_batch

    def spy(pid, copies, encoder=None):
        framed.extend((pid, c.payload) for c in copies if isinstance(c, AppMsg))
        return real(pid, copies, encoder)

    monkeypatch.setattr(tcp, "encode_batch", spy)

    async def scenario():
        deployment = TcpDeployment()
        await deployment.setup(["a", "b", "c"])
        await deployment.settle()
        await deployment.send("a", "last")
        assert framed == []  # still queued: the sender did not yield
        await deployment.close()
        assert framed == [("a", "last"), ("a", "last")]  # one frame per peer

    run(scenario())


def test_a_batch_past_the_frame_limit_is_split(monkeypatch):
    """Copies that each fit in a frame but not together are framed in
    smaller batches, never counted as a frame error."""
    monkeypatch.setattr(wire, "MAX_FRAME", 1000)
    messages = [letter * 300 for letter in "wxyz"]

    async def scenario():
        fabric = TcpFabric()
        inbox = []
        fabric.attach("a", lambda run: None)
        fabric.attach("b", each_message(lambda src, m: inbox.append(m)))
        try:
            for message in messages:
                fabric.send("a", ["b"], message)  # one run for the pump
            await fabric.quiesce(timeout=2)
            assert inbox == messages
            assert not fabric.core.frame_errors
            assert not fabric.core.stats.bounced
        finally:
            await fabric.close()

    run(scenario())
