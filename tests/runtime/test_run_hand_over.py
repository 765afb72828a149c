"""A node drains once per run, not once per arrival.

The hub hands a pump wake-up's carriers to a :class:`GcsNode` as one
run, which the node applies inside one deferred-drain window of its
runner: the n-1 ``SyncMsg``s of a reconfiguration that reach it in one
wake-up cost one drain, and a run of steady ``AppMsg``s - every one a
fast-lane hit - costs none.
"""

from __future__ import annotations

import asyncio

from repro._collections import frozendict
from repro.core.messages import SyncMsg
from repro.runtime import AsyncDeployment
from repro.types import View, ViewId


class Counts:
    """Instance-level counters on one node: runs handed over, drains that
    ran (not the ones a window or a running drain folded in), and
    ``enabled_actions`` evaluations of its end-point."""

    def __init__(self, node):
        self.runs = self.drains = self.evaluations = 0
        endpoint = node.endpoint
        hold, drain, enabled = node.hold_drain, node.drain, endpoint.enabled_actions

        def counted_hold():
            self.runs += 1
            return hold()

        def counted_drain():
            if not node._draining:
                self.drains += 1
            return drain()

        def counted_enabled():
            self.evaluations += 1
            return enabled()

        node.hold_drain, node.drain = counted_hold, counted_drain
        endpoint.enabled_actions = counted_enabled


def test_the_syncs_of_one_wake_up_cost_one_drain():
    pids = [f"p{i}" for i in range(8)]

    async def scenario():
        async with AsyncDeployment() as cluster:
            nodes = await cluster.add_nodes(pids)
            await cluster.start()
            await cluster.settle()
            x, peers = nodes[0], nodes[1:]
            members = frozenset(pids)
            x.membership_start_change(901, members)
            counts = Counts(x)
            # No yield: every peer's SyncMsg is queued at x before its pump wakes.
            for node in peers:
                node.membership_start_change(901, members)
            syncs = []

            def note(src, message):
                syncs.append(type(message))
                return False  # not consumed: the runner applies it

            x.receive_interceptor = note
            await cluster.settle()
            assert syncs == [SyncMsg] * len(peers)
            assert counts.runs == 1
            assert counts.drains == 1  # not one per SyncMsg
            assert counts.evaluations < len(peers)
            view = View(ViewId(50), members, frozendict({pid: 901 for pid in pids}))
            for node in nodes:
                node.membership_view(view)
            await cluster.settle()
            assert all(node.current_view == view for node in nodes)

    asyncio.run(scenario())


def test_a_run_of_steady_app_messages_drains_nothing():
    pids = [f"p{i}" for i in range(5)]

    async def scenario():
        async with AsyncDeployment() as cluster:
            nodes = await cluster.add_nodes(pids)
            await cluster.start()
            await cluster.settle()
            x, peers = nodes[0], nodes[1:]
            for node in peers:  # engage every sender's lane
                await node.send("warm-up")
            await cluster.settle()
            counts = Counts(x)
            for node in peers:
                node.app_send(f"from-{node.pid}")  # no yield between
            await cluster.settle()
            assert x.delivered[-len(peers):] == [(n.pid, f"from-{n.pid}") for n in peers]
            assert counts.runs == 1
            assert counts.drains == 0

    asyncio.run(scenario())
