"""Tests for multiple multicast groups over shared processes."""

import pytest

from repro.checking import SAFETY_CODES, run_verdict
from repro.groups import MultiGroupWorld
from repro.net import ConstantLatency


def make_world():
    world = MultiGroupWorld(latency=ConstantLatency(1.0), round_duration=1.0)
    for pid in ("p0", "p1", "p2", "p3"):
        world.add_process(pid)
    return world


def test_disjoint_groups_form_independently():
    world = make_world()
    world.join("p0", "red"); world.join("p1", "red")
    world.join("p2", "blue"); world.join("p3", "blue")
    world.run()
    assert world.settled("red") and world.settled("blue")
    assert world.group_view("red").members == {"p0", "p1"}
    assert world.group_view("blue").members == {"p2", "p3"}


def test_overlapping_membership():
    world = make_world()
    for pid in ("p0", "p1", "p2"):
        world.join(pid, "chat")
    for pid in ("p1", "p2", "p3"):
        world.join(pid, "metrics")
    world.run()
    p1 = world.processes["p1"]
    assert set(p1.groups()) == {"chat", "metrics"}
    assert p1.current_view("chat").members == {"p0", "p1", "p2"}
    assert p1.current_view("metrics").members == {"p1", "p2", "p3"}


def test_messages_stay_within_their_group():
    world = make_world()
    for pid in ("p0", "p1", "p2"):
        world.join(pid, "chat")
    for pid in ("p1", "p2", "p3"):
        world.join(pid, "metrics")
    world.run()
    world.processes["p0"].send("chat", "hello")
    world.processes["p3"].send("metrics", "cpu=1")
    world.run()
    p1 = world.processes["p1"]
    assert ("p0", "hello") in p1.delivered["chat"]
    assert ("p3", "cpu=1") in p1.delivered["metrics"]
    assert p1.delivered["chat"] != p1.delivered["metrics"]
    # p3 is not in chat: nothing leaked
    assert "chat" not in world.processes["p3"].delivered


def test_reconfiguring_one_group_leaves_others_untouched():
    world = make_world()
    for pid in ("p0", "p1", "p2"):
        world.join(pid, "chat")
        world.join(pid, "metrics")
    world.run()
    metrics_views = {
        pid: len(world.processes[pid].views["metrics"]) for pid in ("p0", "p1", "p2")
    }
    world.leave("p0", "chat")
    world.run()
    assert world.group_view("chat").members == {"p1", "p2"}
    for pid in ("p0", "p1", "p2"):
        assert len(world.processes[pid].views["metrics"]) == metrics_views[pid]


def test_per_group_traces_satisfy_safety():
    world = make_world()
    for pid in ("p0", "p1", "p2"):
        world.join(pid, "g")
    world.run()
    for pid in ("p0", "p1"):
        world.processes[pid].send("g", "m-" + pid)
    world.run()
    world.leave("p2", "g")
    world.run()
    # the shared trace mixes groups; per-group safety holds on the whole
    # trace because payload streams are disjoint per group here
    run_verdict(world.trace, ["p0", "p1", "p2"], include=SAFETY_CODES).raise_for()


def test_join_creates_runner_lazily():
    world = make_world()
    process = world.processes["p0"]
    assert process.groups() == []
    world.join("p0", "late")
    assert process.groups() == ["late"]


def test_duplicate_process_rejected():
    world = make_world()
    with pytest.raises(ValueError):
        world.add_process("p0")


def test_many_groups_scale():
    world = MultiGroupWorld(latency=ConstantLatency(1.0), round_duration=1.0)
    pids = [f"p{i}" for i in range(6)]
    for pid in pids:
        world.add_process(pid)
    for g in range(10):
        for pid in pids[g % 3:]:
            world.join(pid, f"group-{g}")
    world.run()
    for g in range(10):
        assert world.settled(f"group-{g}")


def test_crash_takes_the_shared_transport_down_once():
    world = make_world()
    for pid in ("p0", "p1", "p2"):
        world.join(pid, "chat")
        world.join(pid, "audit")
    world.run()
    victim = world.processes["p2"]
    assert world.crash("p2") == 2  # both of its groups reconfigure
    # The process is gone, not just its end-points: the one transport all
    # its groups share stops sending, buffering and handling inbound.
    assert victim.transport.crashed
    assert victim.transport.reliable_set == frozenset()
    world.processes["p0"].send("chat", "after the crash")
    world.run()
    assert victim.delivered["chat"] == []
    for group in ("chat", "audit"):
        assert world.group_view(group).members == {"p0", "p1"}
        assert world.settled(group)
