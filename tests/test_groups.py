"""Named groups of :class:`SimWorld`: many groups over shared processes,
each one more round machine on the membership-server tier."""

import pytest

from repro.chaos.faults import FaultInjector, FaultModel
from repro.checking import extract_skeleton, run_verdict
from repro.checking.events import MbrshpFormEvent
from repro.core.messages import AppMsg, ViewMsg
from repro.membership.protocol import GroupEnvelope, StartChangeNotice, ViewNotice
from repro.net import ConstantLatency, SimWorld
from repro.scale import TwoTierOverlay, balanced_groups


def make_world(**options):
    options.setdefault("servers", 2)
    world = SimWorld(latency=ConstantLatency(1.0), **options)
    world.add_processes(["p0", "p1", "p2", "p3"])
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
    assert world.groups_of("p1") == ["chat", "metrics"]
    assert world.node("p1", "chat").current_view.members == {"p0", "p1", "p2"}
    assert world.node("p1", "metrics").current_view.members == {"p1", "p2", "p3"}


def test_messages_stay_within_their_group():
    world = make_world()
    for pid in ("p0", "p1", "p2"):
        world.join(pid, "chat")
    for pid in ("p1", "p2", "p3"):
        world.join(pid, "metrics")
    world.run()
    world.node("p0", "chat").send("hello")
    world.node("p3", "metrics").send("cpu=1")
    world.run()
    assert world.node("p1", "chat").delivered == [("p0", "hello")]
    assert world.node("p1", "metrics").delivered == [("p3", "cpu=1")]
    # p3 is not in chat: nothing leaked, it never even got an end-point
    assert world.groups_of("p3") == ["metrics"]
    assert "p3" not in world.group_nodes["chat"]


def test_reconfiguring_one_group_leaves_others_untouched():
    world = make_world()
    for pid in ("p0", "p1", "p2"):
        world.join(pid, "chat")
        world.join(pid, "metrics")
    world.run()
    metrics_views = {
        pid: len(world.node(pid, "metrics").views) for pid in ("p0", "p1", "p2")
    }
    world.leave("p0", "chat")
    world.run()
    assert world.group_view("chat").members == {"p1", "p2"}
    for pid in ("p0", "p1", "p2"):
        assert len(world.node(pid, "metrics").views) == metrics_views[pid]


def test_per_group_traces_satisfy_safety():
    """Two overlapping groups send *the same payloads*; one then loses a
    member.  Each group audits alone - the full battery, MBRSHP
    conformance and liveness included - because each records into its
    own trace (one shared trace fails MBRSHP-CONF spuriously)."""
    world = make_world()
    groups = {"chat": ["p0", "p1", "p2"], "metrics": ["p1", "p2", "p3"]}
    for group, members in groups.items():
        for pid in members:
            world.join(pid, group)
    world.run()
    for group, members in groups.items():
        for pid in members:
            world.node(pid, group).send("same payload")
    world.run()
    world.leave("p2", "chat")
    world.run()
    world.node("p1", "chat").send("same payload")
    world.run()
    for group, members in groups.items():
        verdict = run_verdict(
            world.trace_of(group), members, final_view=world.group_view(group)
        )
        assert verdict.ok, (group, verdict.primary.describe())
        assert {"MBRSHP-CONF", "VS-LIVE"} <= set(verdict.rules)
    assert len(world.trace) == 0  # the default group was never used


def test_join_creates_runner_lazily():
    world = make_world()
    assert world.groups_of("p0") == []
    world.join("p0", "late")
    assert world.groups_of("p0") == ["late"]


def test_duplicate_process_rejected():
    world = make_world()
    with pytest.raises(ValueError):
        world.add_process("p0")
    with pytest.raises(ValueError):
        world.add_node("p0")


def test_many_groups_scale():
    world = SimWorld(latency=ConstantLatency(1.0), servers=3)
    pids = [f"p{i}" for i in range(6)]
    world.add_processes(pids)
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
    network = world.network
    crashes = []
    network.crash = lambda pid, crash=network.crash: (crashes.append(pid), crash(pid))
    assert len(world.crash("p2")) == 2  # both of its groups reconfigure
    # The process is gone, not just its end-points: the one network
    # registration all its groups share stops sending, holding and
    # handling inbound.
    assert crashes == ["p2"]
    assert network.reliable_set("p2") == frozenset()
    assert all(world.node("p2", g).endpoint.crashed for g in ("chat", "audit"))
    world.node("p0", "chat").send("after the crash")
    world.run()
    assert world.node("p2", "chat").delivered == []
    for group in ("chat", "audit"):
        assert world.group_view(group).members == {"p0", "p1"}
        assert world.settled(group)


# ----------------------------------------------------------------------
# the group dimension is neutral: same engine, same tools, no new code
# ----------------------------------------------------------------------


def test_default_and_named_group_run_the_same_execution():
    """One script on the default group and on a single named group of a
    one-server tier: identical golden skeletons - the group is only a
    name, its round machine the same ``MembershipServer``."""
    pids = ["p0", "p1", "p2", "p3"]

    def script(world, group):
        def burst(tag, members):
            for pid in members:
                world.node(pid, group).send(f"{tag}/{pid}")
            world.settle()

        def reconfigure(members):
            if group is not None:
                world.set_group(group, members)
            elif world.tier.started:
                world.set_members(members)
            else:
                world.start()
            world.settle()

        reconfigure(pids)
        burst("formed", pids)
        reconfigure(pids[:-1])
        burst("left", pids[:-1])
        reconfigure(pids)
        burst("rejoined", pids)
        return extract_skeleton(world.trace_of(group))

    default = SimWorld(latency=ConstantLatency(1.0), servers=1)
    default.add_nodes(pids)
    named = make_world(servers=1)
    assert script(default, None) == script(named, "chat")
    assert len(named.trace) == 0


def test_overlay_and_faults_apply_to_a_named_group():
    """A named group of 12 under duplicate/delay/reorder faults with the
    two-tier overlay on *its* runners settles a leave and passes its
    verdict; an overlay-less group on the same processes is undisturbed."""
    faults = FaultInjector(FaultModel(duplicate=0.2, delay=0.2, reorder=0.2, seed=5))
    world = SimWorld(latency=ConstantLatency(1.0), servers=2, faults=faults)
    pids = [f"p{i:02d}" for i in range(12)]
    world.add_processes(pids)
    world.set_group("big", pids)
    world.set_group("plain", pids[:4])
    world.settle()
    runners = dict(world.group_nodes["big"])
    overlay = TwoTierOverlay(
        runners, world.clock.schedule, balanced_groups(pids, 3),
        connected=world.links.connected,
    )
    for pid in pids:
        world.node(pid, "big").send(f"m/{pid}")
    for pid in pids[:4]:
        world.node(pid, "plain").send(f"m/{pid}")
    plain_views = [len(world.node(pid, "plain").views) for pid in pids[:4]]
    world.leave(pids[-1], "big")
    world.settle()
    assert world.settled("big") and overlay.aggregates_sent > 0
    assert faults.snapshot()["duplicated"] > 0
    run_verdict(
        world.trace_of("big"), pids, final_view=world.group_view("big")
    ).raise_for()
    run_verdict(
        world.trace_of("plain"), pids[:4], final_view=world.group_view("plain")
    ).raise_for()
    assert [len(world.node(pid, "plain").views) for pid in pids[:4]] == plain_views
    assert all(len(world.node(pid, "plain").delivered) == 4 for pid in pids[:4])


def test_shared_transport_contract():
    world = make_world()
    world.add_nodes(["q0", "q1"])  # default group, plus "side" on the same two
    world.start()
    world.set_group("side", ["q0", "q1", "p0"])
    world.settle()
    q0 = world.node("q0")
    # reliable to the union of what the default and the named group ask for
    assert world.network.reliable_set("q0") == {"q0", "q1", "p0"}
    assert q0.endpoint.current_view.members == {"q0", "q1"}
    # the default group sends bare: the network sees its AppMsg (and the
    # view marker that goes ahead of a view's first one) unwrapped, a
    # named group's inside an envelope
    sent = []
    multicast = world.network.multicast
    world.network.multicast = lambda src, dsts, m: (
        sent.extend(m for _dst in dsts), multicast(src, dsts, m)
    )[1]
    q0.send("bare")
    world.node("q0", "side").send("wrapped")
    world.settle()
    assert [type(m) for m in sent if not isinstance(m, GroupEnvelope)] == [ViewMsg, AppMsg]
    assert {(type(m.message), m.group) for m in sent if isinstance(m, GroupEnvelope)} == {
        (ViewMsg, "side"), (AppMsg, "side")
    }
    # an envelope for a group the receiver never joined is dropped
    # (p1 joined nothing, q1 joined only "side")
    world.network.multicast = multicast
    bare = next(m for m in sent if type(m) is AppMsg)
    for dst in ("p1", "q1"):
        world.network.send("q0", dst, GroupEnvelope("nowhere", bare))
    world.settle()
    assert world.node("q1").delivered == [("q0", "bare")]
    assert world.node("q1", "side").delivered == [("q0", "wrapped")]
    # one crash: both end-points, the process, every group's share
    assert [view.members for view in world.crash("q0")] == [{"q1", "p0"}]
    world.settle()
    assert q0.endpoint.crashed and world.node("q0", "side").endpoint.crashed
    assert world.network.reliable_set("q0") == frozenset()
    assert world.settled("side") and world.node("q1").current_view.members == {"q1"}


def test_named_groups_need_the_oracle_tier():
    """The mirror image of what the name recorded: named groups run on
    the server tier, and it is the oracle world that refuses them."""
    world = SimWorld()
    world.add_process("p0")
    with pytest.raises(ValueError, match="named groups"):
        world.join("p0", "chat")
    with pytest.raises(ValueError, match="named groups"):
        world.set_group("chat", ["p0"])
    assert world.groups_of("p0") == []


# ----------------------------------------------------------------------
# named groups on the real tier: recovery, server faults, the default
# group undisturbed
# ----------------------------------------------------------------------


def test_recover_readmits_a_process_to_its_named_groups():
    """Regression: ``recover`` was a ``KeyError`` for a process with no
    default-group end-point, and left named-group end-points crashed."""
    world = make_world()
    groups = {"chat": ["p0", "p1", "p2"], "audit": ["p1", "p2", "p3"]}
    for group, members in groups.items():
        world.set_group(group, members)
    world.settle()
    assert "p2" not in world.nodes
    assert len(world.crash("p2")) == 2
    world.settle()
    world.recover("p2")
    world.settle()
    assert world.network.reliable_set("p2") == {"p0", "p1", "p2", "p3"}  # both groups again
    for group, members in groups.items():
        assert not world.node("p2", group).endpoint.crashed
        assert world.group_view(group).members == set(members)
        assert world.settled(group)
        for pid in members:
            world.node(pid, group).send(f"back/{pid}")
    world.settle()
    for group, members in groups.items():
        verdict = run_verdict(
            world.trace_of(group), members, final_view=world.group_view(group)
        )
        assert verdict.ok, (group, verdict.primary.describe())
        assert "VS-LIVE" in verdict.rules


def test_views_formed_stays_the_default_groups():
    """Deployments read ``views_formed[-1]`` as "the view just formed":
    a named group's formation must never show up there."""
    world = make_world()
    world.set_group("early", ["p0", "p1"])
    world.settle()
    assert world.views_formed == []
    world.add_nodes(["q0", "q1"])
    world.start()
    world.set_group("late", ["p2", "q0"])
    world.settle()
    assert [view.members for view in world.views_formed] == [{"q0", "q1"}]
    assert world.views_formed[-1] == world.node("q0").current_view
    # ...and recovering a process the default group never had does not
    # register it there
    world.crash("p0")
    world.recover("p0")
    world.settle()
    assert [view.members for view in world.views_formed] == [{"q0", "q1"}]
    assert world.tier.active_members() == {"q0", "q1"}
    assert world.group_view("early").members == {"p0", "p1"}


def test_overlapping_groups_survive_process_and_owner_faults():
    """Eight processes x twelve overlapping groups on three servers,
    through a process crash + recovery and an owner-server crash +
    recovery: every group passes the full battery on its own trace, the
    server fault-domain rules included."""
    world = SimWorld(latency=ConstantLatency(1.0), servers=3)
    pids = [f"p{i}" for i in range(8)]
    world.add_processes(pids)
    groups = {f"g{i:02d}": [pids[(i + k) % 8] for k in range(4)] for i in range(12)}

    def burst(tag):
        for group, members in groups.items():
            for pid in members:
                world.node(pid, group).send(f"{tag}/{pid}")
        world.settle()

    for group, members in groups.items():
        world.set_group(group, members)
    world.settle()
    burst("formed")
    assert len(world.crash("p3")) == 8  # p3's eight groups, nothing else
    world.settle()
    world.recover("p3")
    burst("recovered")
    owned = [g for g in groups if world.tier.owner_of(g) == "srv:2"]
    formed = {g: len(world.tier.group_views(g)) for g in groups}
    world.tier.crash_server("srv:2")
    burst("failed over")
    assert owned and all(
        len(world.tier.group_views(g)) == formed[g] + (g in owned) for g in groups
    )
    world.tier.recover_server("srv:2")
    burst("server back")
    assert all(world.tier.owner_of(g) != "srv:2" for g in groups)
    for group, members in groups.items():
        verdict = run_verdict(
            world.trace_of(group), members, final_view=world.group_view(group)
        )
        assert verdict.ok, (group, verdict.primary.describe())
        assert {"MBRSHP-SRV-FORK", "MBRSHP-SRV-MONO", "VS-LIVE"} <= set(verdict.rules)
        assert world.trace_of(group).of_type(MbrshpFormEvent)
    assert len(world.trace) == 0


def test_default_group_notices_stay_bare():
    """The default group pays nothing for named groups existing: its
    notices cross the network unwrapped, its traffic too."""
    world = make_world()
    world.add_nodes(["q0", "q1"])
    seen = []
    multicast = world.network.multicast
    world.network.multicast = lambda src, dsts, m: (
        seen.extend((dst, m) for dst in dsts), multicast(src, dsts, m)
    )[1]
    world.start()
    world.set_group("side", ["p0", "p1"])
    world.settle()
    world.node("q0").send("bare")
    world.crash("q1")
    world.settle()
    default = [m for dst, m in seen if dst in ("q0", "q1")]
    assert {type(m) for m in default} >= {StartChangeNotice, ViewNotice}
    assert not any(isinstance(m, GroupEnvelope) for m in default)
    assert all(isinstance(m, GroupEnvelope) for dst, m in seen if dst in ("p0", "p1"))
