"""Hypothesis properties over the simulated deployment.

Random fault schedules - partitions, heals, crashes, recoveries, and
traffic at arbitrary instants - must never violate a safety property, in
either membership mode, with either forwarding strategy, with or without
the compact-sync and two-tier options.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checking import SAFETY_CODES, run_verdict
from repro.core import MinCopiesStrategy, SimpleStrategy
from repro.net import ConstantLatency, SimWorld, UniformLatency
from repro.scale import TwoTierOverlay, balanced_groups

PIDS = [f"p{i}" for i in range(5)]

SIM_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

fault_steps = st.lists(
    st.tuples(
        st.sampled_from(["partition", "heal", "crash", "recover", "send", "run"]),
        st.sets(st.sampled_from(PIDS), min_size=1),
        st.floats(min_value=0.1, max_value=4.0),
    ),
    max_size=8,
)


def drive(world, steps):
    crashed = set()
    for kind, group, delay in steps:
        if kind == "partition":
            rest = [p for p in PIDS if p not in group]
            world.partition([sorted(group)] + ([rest] if rest else []))
        elif kind == "heal":
            world.heal()
        elif kind == "crash":
            victim = sorted(group)[0]
            if victim not in crashed:
                world.crash(victim)
                crashed.add(victim)
        elif kind == "recover":
            victim = sorted(group)[0]
            if victim in crashed:
                world.recover(victim)
                crashed.discard(victim)
        elif kind == "send":
            for pid in sorted(group):
                node = world.nodes[pid]
                # respect the Figure 12 client contract: no sends while
                # the end-point has us blocked for a view change
                if pid not in crashed and not node.blocked:
                    node.send(f"{pid}@{world.now():.1f}")
        world.run_until(world.now() + delay)
    world.heal()
    for pid in sorted(crashed):
        world.recover(pid)
    world.run(max_events=500_000)


class TestSimulatedFaultSchedules:
    @SIM_SETTINGS
    @given(steps=fault_steps, jitter=st.booleans(), compact=st.booleans())
    def test_oracle_mode_safety(self, steps, jitter, compact):
        latency = UniformLatency(0.2, 2.0, seed=1) if jitter else ConstantLatency(1.0)
        world = SimWorld(
            latency=latency,
            round_duration=2.0,
            compact_syncs=compact,
        )
        world.add_nodes(PIDS)
        world.start()
        world.run()
        drive(world, steps)
        final = world.oracle.views_formed[-1]
        assert world.all_in_view(final)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    @SIM_SETTINGS
    @given(steps=fault_steps, strategy=st.sampled_from([SimpleStrategy(), MinCopiesStrategy()]))
    def test_forwarding_strategies_safety(self, steps, strategy):
        world = SimWorld(
            latency=UniformLatency(0.3, 1.5, seed=7),
            round_duration=2.0,
            forwarding=strategy,
        )
        world.add_nodes(PIDS)
        world.start()
        world.run()
        drive(world, steps)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    @SIM_SETTINGS
    @given(steps=fault_steps)
    def test_two_tier_overlay_safety(self, steps):
        world = SimWorld(latency=ConstantLatency(1.0), round_duration=2.0)
        nodes = world.add_nodes(PIDS)
        TwoTierOverlay(
            {node.pid: node for node in nodes},
            world.clock.schedule,
            balanced_groups(PIDS, 2),
            connected=world.links.connected,
        )
        world.start()
        world.run()
        # the overlay assumes stable leaders: restrict faults to non-leaders
        leaders = set(balanced_groups(PIDS, 2))
        safe_steps = [
            (kind, {p for p in group if p not in leaders} or {sorted(group)[0]}, delay)
            if kind in ("crash", "recover") else (kind, group, delay)
            for kind, group, delay in steps
            if not (kind in ("crash", "recover") and set(group) <= leaders)
        ]
        drive(world, safe_steps)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()


class TestOrderingUnderFaults:
    @SIM_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_total_order_agreement_after_churn(self, seed):
        from repro.order import TotalOrderNode

        world = SimWorld(
            latency=UniformLatency(0.2, 2.0, seed=seed),
            round_duration=2.0,
        )
        nodes = world.add_nodes(PIDS)
        ordered = [TotalOrderNode(node) for node in nodes]
        world.start()
        world.run()
        import random

        rng = random.Random(seed)
        for wave in range(3):
            for node in ordered:
                node.broadcast(f"{node.pid}-{wave}")
            if rng.random() < 0.5:
                world.crash(PIDS[-1])
                world.run()
                world.recover(PIDS[-1])
            world.run()
        world.run()
        victim = PIDS[-1]
        survivors = [o for o in ordered if o.pid != victim]
        sequences = {tuple(o.total_order()) for o in survivors}
        # continuously-live members agree on one total order...
        assert len(sequences) == 1
        # ...and the churned node (which missed a segment while down, and
        # restarted its application history on recovery) sees a
        # subsequence of that common order - never a contradiction.
        common = list(sequences.pop())
        churned = [o for o in ordered if o.pid == victim][0].total_order()
        iterator = iter(common)
        assert all(any(entry == other for other in iterator) for entry in churned)
