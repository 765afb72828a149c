"""Partition, heal and the Figure 12 block on the runtime cluster -
on the hub and on sockets."""

import asyncio

import pytest

from repro._collections import frozendict
from repro.checking import SAFETY_CODES, run_verdict
from repro.errors import CrashedError
from repro.membership import StartChangeNotice, ViewNotice
from repro.types import View, ViewId

from tests.runtime.conftest import fail_after, payloads


def test_partition_isolates_islands(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            a, b, c, d = await cluster.add_nodes(["a", "b", "c", "d"])
            await cluster.start()
            views = await cluster.partition([["a", "b"], ["c", "d"]])
            assert views[0].members == {"a", "b"}
            assert views[1].members == {"c", "d"}
            await a.send("left only")
            await c.send("right only")
            await cluster.settle()
            left, right = payloads(b), payloads(d)
            assert "left only" in left and "right only" not in left
            assert "right only" in right and "left only" not in right
            run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()

    on_fabrics(scenario)


def test_heal_restores_full_group(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            nodes = await cluster.add_nodes(["a", "b", "c", "d"])
            await cluster.start()
            await cluster.partition([["a", "b"], ["c", "d"]])
            merged = await cluster.heal()
            assert merged.members == {"a", "b", "c", "d"}
            await nodes[0].send("back together")
            await cluster.settle()
            for node in nodes[1:]:
                assert "back together" in payloads(node)
            run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()

    on_fabrics(scenario)


def test_transitional_sets_reflect_partition_history(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            a, b, c, d = await cluster.add_nodes(["a", "b", "c", "d"])
            await cluster.start()
            await cluster.partition([["a", "b"], ["c", "d"]])
            merged = await cluster.heal()
            assert [t for view, t in a.views if view == merged] == [{"a", "b"}]

    on_fabrics(scenario)


def test_send_waits_while_blocked(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            a, b = await cluster.add_nodes(["a", "b"])
            await cluster.start()
            (server,) = cluster.tier.servers

            async def until(condition):
                while not condition():
                    await asyncio.sleep(0.005)

            # Begin a change over the wire, as the members' own server,
            # but withhold the view: a stays blocked.
            cids = {"a": 901, "b": 902}
            for pid, cid in cids.items():
                cluster.fabric.send(
                    server, [pid], StartChangeNotice(pid, cid, frozenset(cids))
                )
            await asyncio.wait_for(until(lambda: a.blocked), 2.0)
            send_task = asyncio.create_task(a.send("queued until view"))
            await asyncio.sleep(0.02)
            assert not send_task.done()  # waiting, per the Figure 12 contract
            view = View(ViewId(50), frozenset(cids), frozendict(cids))
            for pid in cids:
                cluster.fabric.send(server, [pid], ViewNotice(pid, view))
            await asyncio.wait_for(send_task, 2.0)
            await cluster.settle()
            assert "queued until view" in payloads(b)

    on_fabrics(scenario)


def test_crash_releases_a_sender_waiting_out_a_block(on_fabrics):
    async def scenario(make_cluster):
        async with make_cluster() as cluster:
            a, _b = await cluster.add_nodes(["a", "b"])
            await cluster.start()
            a.membership_start_change(901, frozenset({"a", "b"}))
            assert a.blocked
            send_task = asyncio.ensure_future(a.send("never sent"))
            await asyncio.sleep(0)
            assert not send_task.done()  # waiting, per the Figure 12 contract
            a.crash()
            with pytest.raises(CrashedError):
                await asyncio.wait_for(send_task, 2.0)
            assert a.crashed and ("a", "never sent") not in a.delivered

    with fail_after(10.0):
        on_fabrics(scenario)
