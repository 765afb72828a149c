"""A simulated end-point drains once per arrival instant, not once per copy.

The simulator hands each destination one run per arrival instant - every
copy that reaches it then, over any link - and the end-point's runner
applies the run inside one deferred-drain window
(:meth:`~repro.core.runner.EndpointRunner.on_run`): the n-2 ``SyncMsg``s of
a leave, and the n-2 ``ViewMsg``s that go with the survivors' first
messages of the new view, cost each surviving end-point one drain each.
On a process with named groups the world's envelope router hands each
group end-point a run touches its share as a run of its own, so each
drains once.
"""

from __future__ import annotations

import pytest

from repro.core.messages import AppMsg, SyncMsg, ViewMsg
from repro.membership.protocol import GroupEnvelope
from repro.net.latency import ConstantLatency
from repro.net.world import SimWorld


def count_drains(runner):
    """A one-item list counting the drains ``runner`` runs (not the ones
    a window or a running drain folds in)."""
    drains = [0]
    drain = runner.drain

    def counted():
        if not runner._draining:
            drains[0] += 1
        return drain()

    runner.drain = counted
    return drains


def test_a_settled_leave_costs_each_end_point_one_drain_per_instant():
    n = 16
    pids = [f"p{i:02d}" for i in range(n)]
    world = SimWorld(latency=ConstantLatency(1.0))
    world.add_nodes(pids)
    world.start()
    world.settle()
    for pid in pids:
        world.node(pid).send(f"warm-{pid}")
    world.settle()
    survivors = pids[:-1]
    runs = {pid: [] for pid in survivors}  # (kinds, drains) per run
    evaluations = {pid: 0 for pid in survivors}
    for pid in survivors:
        node = world.node(pid)
        drains = count_drains(node)

        def on_run(run, pid=pid, node=node, drains=drains):
            kinds = [type(message) for _src, payloads in run for message in payloads]
            before = drains[0]
            node.on_run(run)
            runs[pid].append((kinds, drains[0] - before))

        def counted_enabled(pid=pid, enabled=node.endpoint.enabled_actions):
            evaluations[pid] += 1
            return enabled()

        world.attach(pid, on_run)
        node.endpoint.enabled_actions = counted_enabled
    world.set_members(survivors)
    world.settle()
    assert all(world.node(pid).current_view.members == frozenset(survivors) for pid in survivors)
    for pid in survivors:
        # An idle leave sends no view markers: the round's syncs land at
        # one instant ...
        assert [kinds for kinds, _drains in runs[pid]] == [[SyncMsg] * (n - 2)]
        # ... and the instant costs one drain, not n - 2.
        assert [drains for _kinds, drains in runs[pid]] == [1]
        assert evaluations[pid] < n - 2
    # Each survivor's marker leaves with its first message of the view:
    # every peer's pair lands at one instant, which costs one drain.
    for pid in survivors:
        world.node(pid).send(f"after-{pid}")
    world.settle()
    for pid in survivors:
        assert runs[pid][1:] == [([ViewMsg, AppMsg] * (n - 2), 1)]


def test_a_named_group_run_drains_each_groups_end_point_once():
    pids = ["a", "b", "c", "d"]
    world = SimWorld(latency=ConstantLatency(1.0), servers=1)
    world.add_processes(pids)
    for group in ("g1", "g2"):
        world.set_group(group, pids)
    world.settle()
    route = world.network._handlers["a"]
    groups_per_run = []
    drains = {group: count_drains(world.node("a", group)) for group in ("g1", "g2")}
    per_run = []

    def on_run(run):
        envelopes = [m for _src, payloads in run for m in payloads if isinstance(m, GroupEnvelope)]
        groups_per_run.append(sorted({envelope.group for envelope in envelopes}))
        before = {group: count[0] for group, count in drains.items()}
        route(run)
        per_run.append({group: count[0] - before[group] for group, count in drains.items()})

    world.attach("a", on_run)
    world.leave("d", "g1")
    world.leave("d", "g2")
    world.settle()
    for group in ("g1", "g2"):
        assert world.node("a", group).current_view.members == frozenset("abc")
    # b and c send in both groups: their view markers go with the messages.
    for group in ("g1", "g2"):
        for pid in "bc":
            world.node(pid, group).send(f"{pid}-{group}")
    world.settle()
    # Notices, syncs, view markers: three instants, each a run that
    # carries both groups' envelopes (the syncs and markers from b and c).
    assert groups_per_run == [["g1", "g2"]] * 3
    assert per_run == [{"g1": 1, "g2": 1}] * 3


def test_a_raising_input_closes_its_end_points_window():
    """An input that raises inside a group end-point's window closes the
    window on the way out; the router opens no other group's window."""
    pids = ["a", "b", "c", "d"]
    world = SimWorld(latency=ConstantLatency(1.0), servers=1)
    world.add_processes(pids)
    for group in ("g1", "g2"):
        world.set_group(group, pids)
    world.settle()
    node = world.node("a", "g1")
    dispatch = node.dispatch

    def raising_dispatch(src, message):
        if isinstance(message, SyncMsg):
            assert node._draining  # b's and c's syncs: a window
            raise RuntimeError("input hook")
        dispatch(src, message)

    node.dispatch = raising_dispatch
    world.leave("d", "g1")
    world.leave("d", "g2")
    with pytest.raises(RuntimeError, match="input hook"):
        world.settle()
    assert not node._draining
    assert not world.node("a", "g2")._draining
