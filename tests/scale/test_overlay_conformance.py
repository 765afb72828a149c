"""Differential conformance of the two-tier overlay (ISSUE 7, S3).

The overlay's promise: installing it changes *routing*, never
*behaviour*.  These tests run the same scenarios with the overlay on
and off and compare the virtually-synchronous observables (views
installed, transitional sets, per-sender delivery order, per-view
delivery sets), then confirm on every substrate that sync traffic is
fully aggregated while sender attribution survives the relay - and that
a leader crash, including one in the middle of a reconfiguration, only
re-routes.
"""

import asyncio
from collections import defaultdict

import pytest

from repro.checking import SAFETY_CODES, run_verdict
from repro.checking.events import DeliverEvent, ViewEvent
from repro.deploy import SUBSTRATES, make_deployment
from repro.net import ConstantLatency, SimWorld
from repro.scale import TwoTierOverlay, balanced_groups, install_overlay


def _make_world(n=8, leaders=0):
    world = SimWorld(
        latency=ConstantLatency(1.0),
        round_duration=3.0,
        gc_views=False,
    )
    pids = [f"p{i:02d}" for i in range(n)]
    nodes = world.add_nodes(pids)
    overlay = None
    if leaders:
        overlay = TwoTierOverlay(
            dict(world.nodes),
            world.clock.schedule,
            balanced_groups(pids, leaders),
            connected=world.links.connected,
        )
    world.start()
    world.run()
    return world, nodes, overlay


def _churn_scenario(leaders):
    """Sends and crashes touching followers and leaders alike."""
    world, nodes, overlay = _make_world(n=8, leaders=leaders)
    pids = [node.pid for node in nodes]
    for node in nodes:
        node.send("warm-" + node.pid)
    world.run()
    world.crash(pids[-1])  # follower crash
    world.run()
    for node in nodes[:-1]:
        node.send("after-" + node.pid)
    world.run()
    world.crash(pids[0])  # leader crash (re-election under the overlay)
    world.run()
    for node in nodes[1:-1]:
        node.send("final-" + node.pid)
    world.run()
    return world, nodes, overlay


def _observables(world, nodes):
    """The virtually-synchronous content of a run, routing-independent.

    Per process: the sequence of (vid, members, transitional set) it
    installed, the set of (sender, payload) delivered in each view
    segment, and the per-sender delivery order.
    """
    views = defaultdict(list)
    segments = defaultdict(lambda: defaultdict(set))
    fifo = defaultdict(list)
    segment_index = defaultdict(int)
    for event in world.trace:
        if isinstance(event, ViewEvent):
            views[event.proc].append(
                (event.view.vid, event.view.members, event.transitional)
            )
            segment_index[event.proc] += 1
        elif isinstance(event, DeliverEvent):
            pid = event.proc
            segments[pid][segment_index[pid]].add((event.sender, event.payload))
            fifo[(pid, event.sender)].append(event.payload)
    return (
        {pid: tuple(entries) for pid, entries in views.items()},
        {pid: dict(by_segment) for pid, by_segment in segments.items()},
        dict(fifo),
    )


class TestDifferentialEquivalence:
    def test_overlay_preserves_vs_observables(self):
        flat_world, flat_nodes, _ = _churn_scenario(leaders=0)
        two_world, two_nodes, _ = _churn_scenario(leaders=2)
        assert _observables(flat_world, flat_nodes) == _observables(
            two_world, two_nodes
        )
        run_verdict(flat_world.trace, list(flat_world.nodes), include=SAFETY_CODES).raise_for()
        run_verdict(two_world.trace, list(two_world.nodes), include=SAFETY_CODES).raise_for()

    def test_overlay_removes_direct_syncs(self):
        _world, _nodes, overlay = _churn_scenario(leaders=2)
        totals = _world.links.totals()
        assert totals.get("SyncMsg", 0) == 0
        assert totals.get("UpSync", 0) > 0
        assert totals.get("AggregatedSync", 0) > 0
        assert overlay.aggregates_sent > 0


async def _crash_reconfiguration(substrate):
    """Install the overlay on a real deployment, crash a member, settle."""
    deployment = make_deployment(substrate)
    try:
        pids = [f"p{i:02d}" for i in range(8)]
        await deployment.setup(pids)
        install_overlay(deployment, leaders=2)
        # Quiesce before counting: on tcp the outbox pumps may still be
        # draining setup-era traffic when the counters are reset.
        await deployment.settle()
        deployment.links.reset_counters()
        await deployment.crash(pids[-1])
        await deployment.settle()
        survivors = frozenset(pids[:-1])
        converged = all(
            deployment.current_view(pid).members == survivors for pid in pids[:-1]
        )
        deployment.check()
        return deployment.link_totals(), converged
    finally:
        await deployment.close()


class TestEverySubstrate:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_aggregation_and_attribution(self, substrate):
        """Syncs ride the overlay on every substrate; the relayed syncs
        keep their origin attribution (or the survivors could never have
        agreed on the crash view, and the safety battery would fail)."""
        totals, converged = asyncio.run(_crash_reconfiguration(substrate))
        assert converged
        assert totals.get("SyncMsg", 0) == 0
        assert totals.get("UpSync", 0) > 0
        assert totals.get("AggregatedSync", 0) > 0


class TestLeaderCrash:
    def test_leader_crash_re_elects(self):
        world, nodes, overlay = _make_world(n=8, leaders=2)
        pids = [node.pid for node in nodes]
        assert overlay.current_leaders() == {pids[0], pids[4]}
        world.links.reset_counters()
        world.crash(pids[0])
        world.run()
        assert overlay.current_leaders() == {pids[1], pids[4]}
        final = world.oracle.views_formed[-1]
        assert world.all_in_view(final)
        assert world.links.totals().get("SyncMsg", 0) == 0
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_leader_crash_mid_reconfiguration(self):
        """The acceptance scenario: the leader dies *during* the sync
        phase of a reconfiguration it is aggregating."""
        world, nodes, _overlay = _make_world(n=8, leaders=2)
        pids = [node.pid for node in nodes]
        world.crash(pids[-1])  # start a reconfiguration...
        world.clock.run_until(world.clock.now + 0.5)  # start_change lands...
        world.crash(pids[0])  # ...and kill the aggregating leader
        world.run()
        final = world.oracle.views_formed[-1]
        assert final.members == frozenset(pids[1:-1])
        assert world.all_in_view(final)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
