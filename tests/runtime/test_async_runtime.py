"""The runtime cluster (node, cluster, fabric) - on the hub and on sockets."""

import asyncio

import pytest

from repro.chaos.faults import FaultInjector, FaultModel
from repro.checking import SAFETY_CODES, run_verdict
from repro.runtime import AsyncDeployment

from tests.runtime.conftest import drain_events, payloads


def test_cluster_initial_view_and_multicast(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            nodes = await cluster.add_nodes(["a", "b", "c"])
            view = await cluster.start()
            assert view.members == {"a", "b", "c"}
            await nodes[0].send("hello")
            await cluster.settle()
            for node in nodes:
                deliveries, _views = drain_events(node)
                assert ("a", "hello") in deliveries
            run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()

    on_fabrics(scenario)


def test_view_change_event_carries_transitional_set(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            nodes = await cluster.add_nodes(["a", "b"])
            view = await cluster.start()
            _deliveries, changes = drain_events(nodes[0])
            assert changes and changes[0][0] == view
            assert changes[0][1] == {"a"}

    on_fabrics(scenario)


def test_fifo_order_preserved(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            a, b = await cluster.add_nodes(["a", "b"])
            await cluster.start()
            for i in range(20):
                await a.send(i)
            await cluster.settle()
            assert payloads(b) == list(range(20))

    on_fabrics(scenario)


def test_reconfigure_blocks_and_unblocks_senders(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            nodes = await cluster.add_nodes(["a", "b", "c"])
            await cluster.start()
            await nodes[0].send("before")
            v2 = await cluster.reconfigure(["a", "b"])
            assert v2.members == {"a", "b"}
            await nodes[0].send("after")
            await cluster.settle()
            run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()
            assert payloads(nodes[1]) == ["before", "after"]
            assert payloads(nodes[2]) == ["before"]

    on_fabrics(scenario)


def test_join_after_start(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            await cluster.add_nodes(["a", "b"])
            await cluster.start()
            (late,) = await cluster.add_nodes(["late"])
            view = await cluster.reconfigure(["a", "b", "late"])
            assert "late" in view.members
            await late.send("i made it")
            await cluster.settle()
            run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()
            assert "i made it" in payloads(cluster.nodes["a"])

    on_fabrics(scenario)


def test_delayed_hub_still_safe():
    # Every hub delivery held back up to 3 ms by the fault pipeline, as a
    # chaos run delays it; sockets bring their own latency.
    faults = FaultInjector(FaultModel(delay=1.0, jitter=1.0), time_scale=0.003)

    async def scenario():
        async with AsyncDeployment(faults=faults) as cluster:
            nodes = await cluster.add_nodes(["a", "b", "c"])
            await cluster.start()
            for node in nodes:
                await node.send(f"from {node.pid}")
            await cluster.settle()
            await cluster.reconfigure(["a", "c"])
            await cluster.settle()
            run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()

    asyncio.run(scenario())


def test_hub_sender_yields_after_every_send():
    """The hub paces every send with one loop turn, in which the peer's
    pump runs: the peer has handled a message by the time ``send``
    returns, so a burst drains beside its sender, not after it."""

    async def scenario():
        async with AsyncDeployment() as cluster:
            await cluster.setup(["a", "b"])
            await cluster.settle()
            for i in range(3):
                await cluster.send("a", i)
                assert cluster.delivered("b")[-1] == ("a", i)

    asyncio.run(scenario())


def test_duplicate_node_rejected(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            await cluster.add_nodes(["a"])
            with pytest.raises(ValueError):
                await cluster.add_nodes(["a"])

    on_fabrics(scenario)
