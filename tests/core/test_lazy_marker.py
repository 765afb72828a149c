"""The lazy view marker: a view is announced by its first multicast.

WV_RFIFO's ``co_rfifo.send(set, view_msg)`` waits for an application
message of the current view (``WvRfifoEndpoint.app_msg_waits``).  These
tests hold the restriction to what it claims:

* it only removes executions: every action a lazy end-point takes is
  enabled in an eager twin - Figure 9 as published, the marker due at
  view install - driven in step with it;
* the marker and the view's first ``AppMsg`` leave in one drain, so they
  share one carrier on the simulator, one inbox entry on the hub and one
  batch frame on TCP;
* a member that has not sent in its view still takes the fast lane for
  receives, and the lane replays its first send with the marker ahead,
  as the general engine does.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fastpath import FastLane
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import AppMsg, ViewMsg
from repro.harness import ModelHarness
from repro.ioa import Action, ActionKind
from repro.net.latency import ConstantLatency
from repro.net.world import SimWorld
from repro.runtime import AsyncDeployment, TcpDeployment

PROCS = "abcd"

# ----------------------------------------------------------------------
# lockstep with an eager twin
# ----------------------------------------------------------------------


class EagerGcsEndpoint(GcsEndpoint):
    """Test-only: the end-point with Figure 9's marker precondition as
    published - due once the view is installed and the reliable set
    covers it, whether or not a message waits.  Only ever asked
    ``is_enabled`` and stepped with ``apply``: its candidates are the
    lazy ones'."""

    def app_msg_waits(self) -> bool:
        return True


def marker(ep) -> Action:
    view = ep.current_view
    return Action("co_rfifo.send", (ep.pid, frozenset(view.members - {ep.pid}), ViewMsg(view)))


def lockstep(ep, twin, seen: Counter) -> None:
    """Check each output of ``ep`` against ``twin``, then step both."""
    apply = ep.apply

    def checked(action: Action) -> None:
        if ep.kind_of(action.name) is not ActionKind.INPUT:
            assert twin.is_enabled(action), f"{action!r} is not enabled in the eager twin"
            sent = action.params[2] if action.name == "co_rfifo.send" else None
            seen[type(sent).__name__ if sent is not None else action.name] += 1
        apply(action)
        twin.apply(action)
        if not ep.crashed and twin.is_enabled(marker(twin)) and not ep.is_enabled(marker(ep)):
            seen["withheld"] += 1  # a state the eager twin would announce in

    ep.apply = checked


membership_steps = st.lists(
    st.tuples(
        st.sampled_from(["change", "view", "partition"]),
        st.sets(st.sampled_from(list(PROCS)), min_size=1),
        st.integers(min_value=0, max_value=40),  # scheduler steps afterwards
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=membership_steps, seed=st.integers(min_value=0, max_value=2**16))
def test_every_lazy_action_is_enabled_in_the_eager_twin(steps, seed):
    scripts = {p: [f"{p}{i}" for i in range(2)] for p in PROCS}
    harness = ModelHarness(PROCS, seed=seed, scripts=scripts)
    seen: Counter = Counter()
    twins = {p: EagerGcsEndpoint(p, strict=True) for p in PROCS}
    for p, ep in harness.endpoints.items():
        lockstep(ep, twins[p], seen)
    scheduler = harness.scheduler("random", seed=seed)
    for kind, group, budget in steps:
        if kind == "change":
            actions = harness.driver.start_change_actions(group)
        elif kind == "view":
            _view, actions = harness.driver.form_view(group)
        else:
            rest = set(PROCS) - group
            _views, actions = harness.driver.partitioned_views([group] + ([rest] if rest else []))
        for action in actions:
            if harness.mbrshp.is_enabled(action):
                harness.system.execute(harness.mbrshp, action)
        scheduler.run(max_steps=budget)
    scheduler.run(max_steps=3_000)
    for p, ep in harness.endpoints.items():
        assert twins[p].state_vars() == ep.state_vars()
    # A marker only ever goes ahead of an application message.
    assert seen["ViewMsg"] <= seen["AppMsg"] <= 2 * len(PROCS)
    harness.check_safety()


def test_the_twin_announces_where_the_lazy_end_point_waits():
    """The restriction bites: after an idle view install the twin's
    marker is enabled and the lazy end-point's is not."""
    harness = ModelHarness("ab", seed=3)
    seen: Counter = Counter()
    twins = {p: EagerGcsEndpoint(p, strict=True) for p in "ab"}
    for p, ep in harness.endpoints.items():
        lockstep(ep, twins[p], seen)
    harness.form_view("ab")
    harness.scheduler("fair").run(max_steps=2_000)
    assert seen["withheld"] > 0 and seen["ViewMsg"] == 0
    for p, ep in harness.endpoints.items():
        assert twins[p].is_enabled(marker(twins[p]))
        assert not ep.is_enabled(marker(ep))


# ----------------------------------------------------------------------
# one carrier on every substrate
# ----------------------------------------------------------------------


def materialised(run):
    return [(src, list(payloads)) for src, payloads in run]


def test_marker_and_first_app_msg_share_a_carrier_on_the_simulator():
    world = SimWorld(latency=ConstantLatency(1.0))
    world.add_nodes("abc")
    world.start()
    world.settle()
    runs = []
    node = world.node("b")

    def on_run(run):
        run = materialised(run)
        runs.append(run)
        node.on_run(run)

    world.attach("b", on_run)
    world.node("a").send("m1")
    world.settle()
    view = world.node("a").current_view
    assert runs == [[("a", [ViewMsg(view), AppMsg("m1", view, 1)])]]
    assert node.delivered == [("a", "m1")]


@pytest.mark.parametrize("deployment", [AsyncDeployment, TcpDeployment], ids=["hub", "tcp"])
def test_marker_and_first_app_msg_share_a_carrier_on_the_runtimes(deployment):
    async def scenario():
        async with deployment() as cluster:
            await cluster.setup(["a", "b", "c"])
            await cluster.settle()
            runs = []
            handlers = cluster.fabric._handlers
            handler = handlers["b"]

            def on_run(run):
                run = materialised(run)
                runs.append(run)
                handler(run)

            handlers["b"] = on_run
            await cluster.send("a", "m1")
            await cluster.settle()
            view = cluster.nodes["a"].current_view
            assert runs == [[("a", [ViewMsg(view), AppMsg("m1", view, 1)])]]
            assert cluster.nodes["b"].delivered[-1:] == [("a", "m1")]

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# the fast lane
# ----------------------------------------------------------------------


def test_receive_lane_engages_for_a_member_that_has_not_sent(monkeypatch):
    calls = []
    for name in ("try_send", "try_receive"):
        original = getattr(FastLane, name)

        def counted(lane, *args, name=name, original=original):
            hit = original(lane, *args)
            calls.append((lane.endpoint.pid, name, type(args[-1]).__name__, hit))
            return hit

        monkeypatch.setattr(FastLane, name, counted)
    world = SimWorld(latency=ConstantLatency(1.0))
    world.add_nodes("abc")
    world.start()
    world.settle()
    a, b = world.node("a"), world.node("b")
    view = a.current_view
    calls.clear()
    b.send("b1")
    b.send("b2")
    world.settle()
    # a has announced nothing, yet b's messages take a's lane.
    assert a.endpoint.view_msg_of("a") != view
    assert [(name, kind, hit) for pid, name, kind, hit in calls if pid == "a"] == [
        ("try_receive", "ViewMsg", False),
        ("try_receive", "AppMsg", True),
        ("try_receive", "AppMsg", True),
    ]
    # b's sends both took the lane, the first with its marker.
    assert [(name, hit) for pid, name, _kind, hit in calls if pid == "b"] == [
        ("try_send", True),
        ("try_send", True),
    ]
    assert b.endpoint.view_msg_of("b") == view
    calls.clear()
    runs = []
    node = world.node("c")

    def on_run(run):
        run = materialised(run)
        runs.append(run)
        node.on_run(run)

    world.attach("c", on_run)
    a.send("a1")
    a.send("a2")
    world.settle()
    assert [(name, hit) for pid, name, _kind, hit in calls if pid == "a"] == [
        ("try_send", True),
        ("try_send", True),
    ]
    assert a.endpoint.view_msg_of("a") == view
    # The lane put the marker on the wire ahead of the view's first message.
    assert runs == [[("a", [ViewMsg(view), AppMsg("a1", view, 1), AppMsg("a2", view, 2)])]]
    assert b.delivered[-2:] == [("a", "a1"), ("a", "a2")]


def test_the_lane_and_the_general_engine_send_the_same_marker():
    """The lane's replay of a view's first send leaves the end-point and
    the wire exactly as the general drain does."""
    outcomes = []
    for fastpath in (True, False):
        world = SimWorld(latency=ConstantLatency(1.0), fastpath=fastpath)
        world.add_nodes("abc")
        world.start()
        world.settle()
        sent = []
        multicast = world.network.multicast

        def recorded(src, dsts, m, multicast=multicast, sent=sent):
            sent.append((src, sorted(dsts), m))
            multicast(src, dsts, m)

        world.network.multicast = recorded
        world.node("a").send("m1")
        world.node("a").send("m2")
        world.settle()
        ep = world.node("a").endpoint
        delivered = [world.node(p).delivered for p in "abc"]
        outcomes.append((sent, ep.view_msg, ep.last_sent, dict(ep.last_dlvrd), ep.msgs, delivered))
    assert outcomes[0] == outcomes[1]
