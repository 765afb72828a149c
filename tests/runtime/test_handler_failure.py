"""A handler exception on a runtime fabric is reported, not a stall:
``quiesce`` raises it at once, delivery goes on, and ``close`` still
hands over the admitted copies, then raises it again once it has
released everything."""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.tcp import TcpFabric
from repro.runtime.transport import AsyncHub


class Broken(Exception):
    pass


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

        fabric.attach("a", lambda src, message: received.append(message))
        fabric.attach("b", handler)
        fabric.send("a", ["b"], "first")
        fabric.send("a", ["b"], "second")
        with pytest.raises(Broken):
            await fabric.quiesce(timeout=2.0)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 2.0
        while fabric.core.in_flight and loop.time() < deadline:
            await asyncio.sleep(0.01)
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
