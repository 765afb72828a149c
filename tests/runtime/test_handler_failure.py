"""A handler exception on a runtime fabric is reported, not a stall:
``quiesce`` raises it at once, delivery goes on - the rest of the run it
was raised in included - and ``close`` still hands over the admitted
copies, then raises it again once it has released everything."""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime import AsyncDeployment
from repro.runtime.tcp import TcpFabric
from repro.runtime.transport import AsyncHub
from tests.conftest import each_message


class Broken(Exception):
    pass


async def until_resolved(fabric, seconds=2.0):
    """Wait for the ledger to empty; ``quiesce`` would raise the failure."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds
    while fabric.core.in_flight and loop.time() < deadline:
        await asyncio.sleep(0.01)


@pytest.mark.parametrize("fabric_cls", [AsyncHub, TcpFabric], ids=["hub", "tcp"])
def test_a_handler_exception_is_raised_by_quiesce_and_close(fabric_cls):
    async def scenario():
        fabric = fabric_cls()
        received = []

        def handler(src, message):
            if message == "first":
                raise Broken("handler broke on its first copy")
            received.append(message)
            if message == "third":
                fabric.send("b", ["a"], "reply")

        fabric.attach("a", each_message(lambda src, message: received.append(message)))
        fabric.attach("b", each_message(handler))
        fabric.send("a", ["b"], "first")
        fabric.send("a", ["b"], "second")
        with pytest.raises(Broken):
            await fabric.quiesce(timeout=2.0)
        await until_resolved(fabric)
        assert received == ["second"]  # the inbox is still served
        assert fabric.core.in_flight == 0
        # close still hands over a copy sent after the failure, unyielded,
        # and the reply its handler sends.
        fabric.send("a", ["b"], "third")
        with pytest.raises(Broken):
            await fabric.close()
        assert received == ["second", "third", "reply"]
        assert fabric.core.in_flight == 0

    asyncio.run(scenario())


def test_a_raising_payload_mid_run_keeps_the_first_exception_and_the_rest_of_the_run():
    """Three carriers from three senders, queued with no yield, are one
    hub wake-up; two payloads in it raise.  The first exception is the
    one kept, every other payload of the run is still handed over, in
    order, and the ledger empties."""

    async def scenario():
        hub = AsyncHub()
        received, runs = [], []

        def handler(src, message):
            if message.startswith("boom"):
                raise Broken(message)
            received.append((src, message))

        record = each_message(handler)

        def on_run(run):
            runs.append([src for src, _payloads in run])
            record(run)

        for pid in ("a", "b", "c"):
            hub.attach(pid, lambda run: None)
        hub.attach("z", on_run)
        hub.send("a", ["z"], "a1")
        hub.send("b", ["z"], "boom-1")
        hub.send("b", ["z"], "b2")
        hub.send("c", ["z"], "boom-2")
        hub.send("c", ["z"], "c2")
        with pytest.raises(Broken, match="boom-1"):
            await hub.quiesce(timeout=2.0)
        await until_resolved(hub)
        assert received == [("a", "a1"), ("b", "b2"), ("c", "c2")]
        # One wake-up: the whole run, then what was left after each raise.
        assert runs == [["a", "b", "c"], ["b", "c"], ["c"]]
        with pytest.raises(Broken, match="boom-1"):
            await hub.close()
        assert hub.core.in_flight == 0

    asyncio.run(scenario())


def test_a_hook_raising_in_the_deferred_drain_leaves_no_window_open():
    """An application hook that raises inside a run's closing drain is
    the fabric's kept failure; the runner's window is closed, so the next
    input drains (and delivers) as ever."""

    async def scenario():
        # Without the fast lane every delivery runs in a drain.
        cluster = AsyncDeployment(fastpath=False)
        a, b = await cluster.add_nodes(["a", "b"])
        await cluster.start()

        def hook(sender, payload):
            if payload == "boom":
                raise Broken("application hook")

        b.set_app(on_deliver=hook)
        await a.send("boom")
        with pytest.raises(Broken):
            await cluster.fabric.quiesce(timeout=2.0)
        assert not b._draining  # the window closed on the raise
        await a.send("after")
        await until_resolved(cluster.fabric)
        assert [payload for _sender, payload in b.delivered] == ["boom", "after"]
        with pytest.raises(Broken):
            await cluster.close()
        assert cluster.fabric.core.in_flight == 0

    asyncio.run(scenario())
