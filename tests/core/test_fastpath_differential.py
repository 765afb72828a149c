"""Differential testing of the steady-state fast path.

The fast lane (:mod:`repro.core.fastpath`) compiles the within-view
send/deliver loop to straight-line code; the general engine remains the
oracle.  These tests run the *same* seeded scenarios with the lane
enabled and disabled and require the resulting
:class:`~repro.checking.events.GcsTrace` objects to be identical:
event-for-event with every field equal - virtual timestamps included -
on the simulator, whose clock is deterministic, and event-for-event
after timestamp normalisation on the wall-clock runtimes (asyncio hub,
TCP sockets).  (Raw pickle bytes are *not* compared: the lane reuses
the same string object for ``proc`` and ``sender`` where the general
engine builds equal but distinct ones, which changes pickle memo
references without changing any observable value.)

The mid-stream scenarios force view changes while application traffic
is flowing, exercising the drain-back boundary: the lane must disengage
on the first membership event and the general engine must take over
without a single event reordered, duplicated, or lost.

The lane writes no delivery index (``deliverable``): each operation it
replays adds and then removes the same sender.  After every lane-on
simulator run each end-point's index is held to its buffer rescan.
"""

import random
from dataclasses import replace

import pytest

from repro.core.wv_endpoint import naive_candidates_deliver
from repro.deploy import run_scenario
from repro.net import ConstantLatency, SimWorld, UniformLatency


def sim_trace(fastpath, build, make_latency):
    """Run ``build`` on a fresh SimWorld; return its trace events."""
    world = SimWorld(
        latency=make_latency(), fastpath=fastpath
    )
    build(world)
    if fastpath:
        for node in world.nodes.values():
            rescan = {q for _p, q, _m in naive_candidates_deliver(node.endpoint)}
            assert node.endpoint.deliverable == rescan, node.pid
    return world.trace.events


def assert_sim_differential(build, make_latency=lambda: ConstantLatency(1.0)):
    # Each run gets its own latency model: a seeded model is an RNG
    # stream, and sharing one instance would hand the second run the
    # first run's leftovers.
    fast = sim_trace(True, build, make_latency)
    slow = sim_trace(False, build, make_latency)
    assert len(fast) > 0
    # Dataclass equality covers every field, virtual timestamps included,
    # and requires the exact same event class.
    assert fast == slow


def test_sim_steady_state_identical():
    """Pure within-view traffic: every operation rides the lane."""

    def build(world):
        nodes = world.add_nodes([f"p{i}" for i in range(5)])
        world.start()
        world.run()
        for round_no in range(6):
            for node in nodes:
                node.send((node.pid, round_no))
            world.run()

    assert_sim_differential(build)


def test_sim_mid_stream_view_changes_identical():
    """Sends in flight while membership churns: drain-back exercised.

    Messages are deliberately left on the wire when the reconfiguration
    and the crash hit, so some end-points take membership inputs between
    fast-lane deliveries and must fall back mid-stream.
    """

    def build(world):
        nodes = world.add_nodes([f"p{i}" for i in range(4)])
        world.start()
        world.run()
        for node in nodes:
            node.send("pre-" + node.pid)
        # Do NOT settle: the reconfiguration races the app traffic.
        world.oracle.reconfigure([["p0", "p1", "p2"]])
        world.run()
        for pid in ("p0", "p1", "p2"):
            world.node(pid).send("mid-" + pid)
        world.run_until(world.now() + 0.5)  # deliveries still in flight
        world.crash("p2")
        world.run()
        for pid in ("p0", "p1"):
            world.node(pid).send("post-" + pid)
        world.run()

    assert_sim_differential(build)


def test_sim_partition_heal_identical():
    def build(world):
        nodes = world.add_nodes([f"p{i}" for i in range(4)])
        world.start()
        world.run()
        for node in nodes:
            node.send("before")
        world.partition([["p0", "p1"], ["p2", "p3"]])
        world.run()
        world.node("p0").send("island-a")
        world.node("p3").send("island-b")
        world.run()
        world.heal()
        world.run()
        for node in nodes:
            node.send("after")
        world.run()

    assert_sim_differential(build)


@pytest.mark.parametrize("seed", [7, 21, 42])
def test_sim_seeded_random_ops_identical(seed):
    """A seeded mix of sends, reconfigurations, crashes, and partial runs."""

    def build(world):
        rng = random.Random(seed)
        pids = [f"p{i}" for i in range(5)]
        nodes = world.add_nodes(pids)
        world.start()
        world.run()
        alive = set(pids)
        for step in range(30):
            op = rng.random()
            if op < 0.7:
                pid = rng.choice(sorted(alive))
                node = world.node(pid)
                if not node.blocked:
                    node.send((pid, step))
            elif op < 0.8 and len(alive) > 2:
                pid = rng.choice(sorted(alive))
                alive.discard(pid)
                world.crash(pid)
            elif op < 0.9:
                world.oracle.reconfigure([sorted(alive)])
            if rng.random() < 0.5:
                world.run_until(world.now() + rng.choice([0.5, 1.0, 2.0]))
            else:
                world.run()
        world.run()

    assert_sim_differential(build)


def test_sim_jittered_latency_identical():
    """Seeded jitter: batching and the lane see out-of-phase arrivals."""

    def build(world):
        nodes = world.add_nodes([f"p{i}" for i in range(4)])
        world.start()
        world.run()
        for round_no in range(4):
            for node in nodes:
                node.send(round_no)
            world.run()

    assert_sim_differential(build, make_latency=lambda: UniformLatency(0.5, 3.0, seed=9))


# ----------------------------------------------------------------------
# wall-clock runtimes: compare after timestamp normalisation
# ----------------------------------------------------------------------


def normalized(deployment):
    """The trace with wall-clock timestamps zeroed, per process.

    The runtimes interleave processes nondeterministically between
    quiescent points, so the cross-process order of one run is not a
    specification; the per-process event sequences are.
    """
    by_proc = {}
    for event in deployment.trace:
        by_proc.setdefault(event.proc, []).append(replace(event, time=0.0))
    return by_proc


async def scenario_steady_then_reconfigure(deployment):
    """Sequential steady-state traffic, then a mid-stream view change."""
    pids = ["p0", "p1", "p2"]
    await deployment.setup(pids)
    for round_no in range(3):
        for pid in pids:
            await deployment.send(pid, (pid, round_no))
        await deployment.settle()
    await deployment.reconfigure(["p0", "p1"])
    for pid in ("p0", "p1"):
        await deployment.send(pid, "after-" + pid)
    await deployment.settle()


@pytest.mark.parametrize("substrate", ["async", "tcp"])
def test_runtime_fast_on_off_identical(substrate):
    fast = run_scenario(substrate, scenario_steady_then_reconfigure, fastpath=True)
    slow = run_scenario(substrate, scenario_steady_then_reconfigure, fastpath=False)
    fast_events, slow_events = normalized(fast), normalized(slow)
    assert fast_events.keys() == slow_events.keys()
    for proc in fast_events:
        assert fast_events[proc] == slow_events[proc], f"divergence at {proc}"
    # Both runs must also pass the full property battery.
    fast.check()
    slow.check()
