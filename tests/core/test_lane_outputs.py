"""The fast lane emits through the runner's outputs and builds no buffers.

* Every wire send of the lane - each ``AppMsg``, and the view's marker
  ahead of the first one - passes the runner's ``wire_interceptor``, the
  seam the two-tier overlay installs on, as the general drain's do.
* ``_route`` reads the clock only for the outputs that record a trace
  event.
* A settled, warmed view builds no ``MessageLog``: the lane reads the
  buffers as ``msgs[q][view]``, and ``buffer`` allocates only on a miss.
"""

from __future__ import annotations

from collections import defaultdict

from repro._collections import MessageLog, frozendict
from repro.core.fastpath import FastLane
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import AppMsg, SyncMsg, ViewMsg
from repro.core.runner import EndpointRunner
from repro.net.latency import ConstantLatency
from repro.net.world import SimWorld
from repro.types import initial_view, make_view


def settled_world(n):
    world = SimWorld(latency=ConstantLatency(1.0))
    pids = [f"p{i:02d}" for i in range(n)]
    world.add_nodes(pids)
    world.start()
    world.settle()
    return world, pids


def test_lane_sends_pass_the_wire_interceptor(monkeypatch):
    world, pids = settled_world(4)
    node = world.node(pids[0])
    taken = []
    try_send = FastLane.try_send

    def counted(lane, payload):
        taken.append(try_send(lane, payload))
        return taken[-1]

    monkeypatch.setattr(FastLane, "try_send", counted)
    seen = []

    def count(targets, message):
        seen.append((targets, type(message)))
        return False  # not consumed: the substrate still sends it

    node.wire_interceptor = count
    for i in range(3):
        node.send(i)
        world.settle()
    assert taken == [True] * 3
    peers = frozenset(pids[1:])
    assert seen == [(peers, ViewMsg)] + [(peers, AppMsg)] * 3
    for pid in pids[1:]:
        assert world.node(pid).delivered[-3:] == [(pids[0], i) for i in range(3)]


def test_route_reads_the_clock_only_for_outputs_that_record_an_event():
    reads = [0]

    def clock():
        reads[0] += 1
        return float(reads[0])

    runner = EndpointRunner(
        GcsEndpoint("a"),
        send_wire=lambda *_: None,
        set_reliable=lambda *_: None,
        clock=clock,
        fastpath=False,
    )
    route = runner._route
    per_output = defaultdict(set)

    def counted(action):
        before = reads[0]
        route(action)
        per_output[action.name].add(reads[0] - before)

    runner._route = counted
    view = make_view(1, ["a", "b"], {"a": 1, "b": 1})
    runner.membership_start_change(1, {"a", "b"})
    runner.receive("b", SyncMsg(1, initial_view("b"), frozendict({"b": 0})))
    runner.membership_view(view)
    runner.app_send("x")
    runner.receive("b", ViewMsg(view))
    runner.receive("b", AppMsg("y"))
    assert dict(per_output) == {
        "co_rfifo.reliable": {0},
        "block": {1},
        "co_rfifo.send": {0},
        "view": {1},
        "deliver": {1},
    }


def test_a_warmed_view_builds_no_message_log(monkeypatch):
    world, pids = settled_world(16)
    for pid in pids:  # every member's marker and buffers are out
        world.node(pid).send(("warm", pid))
    world.settle()
    built = [0]
    init = MessageLog.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MessageLog, "__init__", counted)
    for i in range(20):
        world.node(pids[i % len(pids)]).send(("ping", i))
        world.settle()
    assert built[0] == 0
    assert all(len(world.node(pid).delivered) == 16 + 20 for pid in pids)
