"""Tests for the replicated state machine over the GCS."""

import pytest

from repro.apps import NotPrimaryError, ReplicatedStateMachine
from repro.checking import SAFETY_CODES, run_verdict
from repro.net import ConstantLatency, SimWorld, UniformLatency


def apply_op(state, operation):
    kind, value = operation
    if kind == "add":
        return state + value
    if kind == "mul":
        return state * value
    raise ValueError(kind)


def make_replicas(n=4, universe=None, latency=None):
    world = SimWorld(
        latency=latency or ConstantLatency(1.0),
        round_duration=2.0,
    )
    nodes = world.add_nodes([f"p{i}" for i in range(n)])
    replicas = [
        ReplicatedStateMachine(node, 0, apply_op, universe=universe)
        for node in nodes
    ]
    world.start()
    world.run()
    return world, replicas


def states(replicas):
    return {r.pid: (r.state, r.applied) for r in replicas}


class TestReplication:
    def test_all_replicas_apply_all_commands(self):
        world, replicas = make_replicas()
        replicas[0].command(("add", 5))
        replicas[1].command(("add", 7))
        world.run()
        assert set(states(replicas).values()) == {(12, 2)}

    def test_non_commutative_commands_agree(self):
        # add then mul vs mul then add differ; total order must pick one
        # outcome for everyone, across many jittered runs
        for seed in range(5):
            world, replicas = make_replicas(latency=UniformLatency(0.2, 2.0, seed=seed))
            replicas[0].command(("add", 3))
            replicas[1].command(("mul", 10))
            world.run()
            outcomes = set(states(replicas).values())
            assert len(outcomes) == 1, outcomes
            assert outcomes.pop()[0] in (30, 3)  # (0+3)*10 or 0*10+3

    def test_on_apply_hook(self):
        seen = []
        world = SimWorld(latency=ConstantLatency(1.0))
        node = world.add_node("solo")
        replica = ReplicatedStateMachine(
            node, 0, apply_op, on_apply=lambda state, op: seen.append((state, op))
        )
        world.start()
        world.run()
        replica.command(("add", 2))
        world.run()
        assert seen == [(2, ("add", 2))]


class TestMerges:
    def test_partition_divergence_resolved_deterministically(self):
        world, replicas = make_replicas()
        replicas[0].command(("add", 1))
        world.run()
        world.partition([["p0", "p1"], ["p2", "p3"]])
        world.run()
        replicas[0].command(("add", 100))
        replicas[2].command(("add", 777))
        world.run()
        assert replicas[0].state == 101
        assert replicas[2].state == 778
        world.heal()
        world.run()
        final = set(states(replicas).values())
        assert len(final) == 1, final  # everyone adopted one winner
        assert final.pop()[0] in (101, 778)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_commands_during_merge_apply_on_top_of_winner(self):
        world, replicas = make_replicas()
        world.partition([["p0", "p1"], ["p2", "p3"]])
        world.run()
        replicas[0].command(("add", 10))
        world.run()
        world.heal()
        world.run()
        base = replicas[0].state
        replicas[3].command(("add", 5))
        world.run()
        assert set(states(replicas).values()) == {(base + 5, replicas[0].applied)}

    def test_newcomer_adopts_state(self):
        world, replicas = make_replicas(n=3)
        world.crash("p2")
        world.run()
        replicas[0].command(("add", 42))
        world.run()
        world.recover("p2")
        world.run()
        assert replicas[2].state == 42


class TestPrimaryPartition:
    def test_minority_rejects_commands(self):
        universe = frozenset({"p0", "p1", "p2", "p3"})
        world, replicas = make_replicas(universe=universe)
        world.partition([["p0", "p1", "p2"], ["p3"]])
        world.run()
        replicas[0].command(("add", 1))  # majority side: fine
        with pytest.raises(NotPrimaryError):
            replicas[3].command(("add", 99))
        world.run()

    def test_majority_history_always_wins_merge(self):
        universe = frozenset({"p0", "p1", "p2", "p3"})
        world, replicas = make_replicas(universe=universe)
        world.partition([["p0", "p1", "p2"], ["p3"]])
        world.run()
        replicas[0].command(("add", 100))
        world.run()
        world.heal()
        world.run()
        assert set(states(replicas).values()) == {(100, 1)}

    def test_even_split_nobody_primary(self):
        universe = frozenset({"p0", "p1", "p2", "p3"})
        world, replicas = make_replicas(universe=universe)
        world.partition([["p0", "p1"], ["p2", "p3"]])
        world.run()
        for replica in replicas:
            with pytest.raises(NotPrimaryError):
                replica.command(("add", 1))
