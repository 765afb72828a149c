"""Hypothesis properties of the membership-server protocol.

Random schedules of server-tier partitions, heals, client churn, and
client crashes must keep every client's notice stream compliant with the
MBRSHP specification (Figure 2), and a final stable period must converge
every reachable client onto one identical view.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checking.events import MbrshpStartChangeEvent, MbrshpViewEvent
from repro.ioa import Action
from repro.net import ConstantLatency, SimWorld
from repro.spec.mbrshp import MbrshpSpec

CLIENTS = [f"c{i}" for i in range(6)]
SERVERS = ["srv:0", "srv:1"]

MEMBERSHIP_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

events = st.lists(
    st.tuples(
        st.sampled_from(["split", "heal", "crash", "recover"]),
        st.integers(min_value=0, max_value=len(CLIENTS) - 1),
        st.floats(min_value=0.5, max_value=3.0),
    ),
    max_size=6,
)


def replay_against_spec(world):
    spec = MbrshpSpec(list(world.nodes))
    for event in world.trace:
        if isinstance(event, MbrshpStartChangeEvent):
            action = Action("mbrshp.start_change", (event.proc, event.cid, event.members))
        elif isinstance(event, MbrshpViewEvent):
            action = Action("mbrshp.view", (event.proc, event.view))
        else:
            continue
        assert spec.is_enabled(action), f"MBRSHP violation: {action!r}"
        spec.apply(action)


def split_tier(world):
    """Cut the server tier apart; clients follow their home server."""
    world.tier.partition_servers([[sid] for sid in SERVERS])


class TestServerMembershipUnderChurn:
    @MEMBERSHIP_SETTINGS
    @given(schedule=events)
    def test_spec_compliance_and_convergence(self, schedule):
        world = SimWorld(
            latency=ConstantLatency(1.0), servers=len(SERVERS)
        )
        world.add_nodes(CLIENTS)
        world.start()
        world.run(max_events=300_000)
        crashed = set()
        for kind, index, delay in schedule:
            victim = CLIENTS[index]
            if kind == "split":
                split_tier(world)
            elif kind == "heal":
                world.heal()
            elif kind == "crash" and victim not in crashed:
                world.crash(victim)
                crashed.add(victim)
            elif kind == "recover" and victim in crashed:
                world.recover(victim)
                crashed.discard(victim)
            world.run_until(world.now() + delay)
        world.heal()
        for victim in sorted(crashed):
            world.recover(victim)
        world.run(max_events=500_000)

        replay_against_spec(world)
        views = {node.current_view for node in world.nodes.values()}
        assert len(views) == 1, views
        assert next(iter(views)).members == set(CLIENTS)

    @MEMBERSHIP_SETTINGS
    @given(schedule=events)
    def test_gcs_safety_over_server_membership(self, schedule):
        from repro.checking import SAFETY_CODES, run_verdict

        world = SimWorld(
            latency=ConstantLatency(1.0), servers=len(SERVERS)
        )
        world.add_nodes(CLIENTS)
        world.start()
        world.run(max_events=300_000)
        crashed = set()
        for kind, index, delay in schedule:
            victim = CLIENTS[index]
            if kind == "split":
                split_tier(world)
            elif kind == "heal":
                world.heal()
            elif kind == "crash" and victim not in crashed:
                world.crash(victim)
                crashed.add(victim)
            elif kind == "recover" and victim in crashed:
                world.recover(victim)
                crashed.discard(victim)
            for pid, node in world.nodes.items():
                if pid not in crashed and not node.blocked:
                    node.send(f"{pid}@{world.now():.1f}")
            world.run_until(world.now() + delay)
        world.heal()
        for victim in sorted(crashed):
            world.recover(victim)
        world.run(max_events=500_000)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
