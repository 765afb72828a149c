"""End-to-end GCS over real loopback TCP sockets, read from each node's
``delivered`` / ``views`` as they arrive, without a settle (the
fabric-generic suite in ``test_async_runtime`` / ``test_cluster_faults``
settles first)."""

import asyncio

import pytest

from repro.checking import SAFETY_CODES, run_verdict
from repro.runtime import TcpDeployment
from repro.wire import MAX_DEPTH


def run(coro):
    return asyncio.run(coro)


async def collect_deliveries(node, count, timeout=5.0):
    """The first ``count`` deliveries at ``node``, as ``(sender, payload)``."""

    async def arrived():
        while len(node.delivered) < count:
            await asyncio.sleep(0.001)

    await asyncio.wait_for(arrived(), timeout)
    return node.delivered[:count]


def test_view_and_multicast_over_sockets():
    async def scenario():
        async with TcpDeployment() as cluster:
            a, b, c = await cluster.add_nodes(["a", "b", "c"])
            view = await cluster.start()
            assert view.members == {"a", "b", "c"}
            await a.send("over real sockets")
            deliveries = await collect_deliveries(b, 1)
            assert deliveries[0] == ("a", "over real sockets")
            run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()

    run(scenario())


def test_fifo_order_over_sockets():
    async def scenario():
        async with TcpDeployment() as cluster:
            a, b = await cluster.add_nodes(["a", "b"])
            await cluster.start()
            for i in range(10):
                await a.send(i)
            deliveries = await collect_deliveries(b, 10)
            assert [payload for _sender, payload in deliveries] == list(range(10))

    run(scenario())


def test_reconfiguration_over_sockets():
    async def scenario():
        async with TcpDeployment() as cluster:
            a, b, c = await cluster.add_nodes(["a", "b", "c"])
            await cluster.start()
            await a.send("before")
            v2 = await cluster.reconfigure(["a", "b"])
            assert v2.members == {"a", "b"}
            await a.send("after")
            deliveries = await collect_deliveries(b, 2)
            assert [payload for _sender, payload in deliveries] == ["before", "after"]
            run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()

    run(scenario())


def test_a_payload_outside_the_wire_set_is_refused_at_send():
    """The sender raises before it delivers to itself or takes an index,
    so the group's streams stay gap-free and nothing is a frame error."""

    async def scenario():
        async with TcpDeployment() as cluster:
            a, b = await cluster.add_nodes(["a", "b"])
            await cluster.start()
            for payload in (["a", "list"], {"a": "dict"}, (1, {2})):
                with pytest.raises(TypeError):
                    await a.send(payload)
            await a.send("next")
            for node in (a, b):
                deliveries = await collect_deliveries(node, 1)
                assert deliveries == [("a", "next")]
            await cluster.settle()
            assert not cluster.links.frame_errors
            run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()

    run(scenario())


def test_nesting_past_the_format_rule_is_refused_at_send():
    """The payload check and the encoder keep one nesting rule: a payload
    one level past ``MAX_DEPTH`` is a ValueError before the sender
    delivers it to itself, and one at the rule's depth round-trips."""

    def nested(depth):
        payload = ()
        for _ in range(depth - 1):
            payload = (payload,)
        return payload

    async def scenario():
        async with TcpDeployment() as deployment:
            await deployment.setup(["a", "b"])
            with pytest.raises(ValueError):
                await deployment.send("a", nested(MAX_DEPTH + 1))
            await deployment.settle()
            assert deployment.delivered("a") == []
            await deployment.send("a", nested(MAX_DEPTH))
            await deployment.settle()
            for pid in ("a", "b"):
                assert deployment.delivered(pid) == [("a", nested(MAX_DEPTH))]
            assert not deployment.links.frame_errors

    run(scenario())


def test_view_change_event_over_sockets():
    async def scenario():
        async with TcpDeployment() as cluster:
            (a,) = await cluster.add_nodes(["a"])
            view = await cluster.start()
            ((installed, transitional),) = a.views
            assert installed == view
            assert transitional == {"a"}

    run(scenario())
