"""Baseline algorithms: same safety semantics, slower reconfiguration."""

import pytest

from repro.baselines import SequentialVsEndpoint, TwoRoundVsEndpoint
from repro.checking import SAFETY_CODES, run_verdict
from repro.checking.events import MbrshpViewEvent, ViewEvent
from repro.checking.refinement import attach_refinement_checkers
from repro.core import GcsEndpoint
from repro.core.forwarding import MinCopiesStrategy
from repro.harness import ModelHarness
from repro.net import ConstantLatency, SimWorld


def run_world(endpoint_cls, n=4, round_duration=3.0):
    world = SimWorld(
        latency=ConstantLatency(1.0),
        round_duration=round_duration,
        endpoint_cls=endpoint_cls,
        gc_views=False,
    )
    nodes = world.add_nodes([f"p{i}" for i in range(n)])
    world.start()
    world.run()
    return world, nodes


def reconfigure_and_measure(world, nodes):
    for node in nodes:
        node.send(f"pre-{node.pid}")
    world.run()
    t0 = world.now()
    world.crash(nodes[-1].pid)
    world.run()
    view = world.oracle.views_formed[-1]
    mb = max(e.time for e in world.trace.of_type(MbrshpViewEvent) if e.view == view)
    gcs = max(e.time for e in world.trace.of_type(ViewEvent) if e.view == view)
    return view, mb - t0, gcs - mb


@pytest.mark.parametrize("endpoint_cls", [SequentialVsEndpoint, TwoRoundVsEndpoint])
def test_baseline_safety(endpoint_cls):
    world, nodes = run_world(endpoint_cls)
    view, _mb, _extra = reconfigure_and_measure(world, nodes)
    for node in nodes[:-1]:
        node.send(f"post-{node.pid}")
    world.run()
    run_verdict(
        world.trace, list(world.nodes), final_view=view, include=SAFETY_CODES
    ).raise_for()


def test_sequential_costs_one_extra_round():
    world, nodes = run_world(SequentialVsEndpoint)
    _view, _mb, extra = reconfigure_and_measure(world, nodes)
    assert extra == pytest.approx(1.0)  # one sync exchange after the view


def test_two_round_costs_two_extra_rounds():
    world, nodes = run_world(TwoRoundVsEndpoint)
    _view, _mb, extra = reconfigure_and_measure(world, nodes)
    assert extra == pytest.approx(2.0)  # propose-id + sync exchanges


def test_paper_algorithm_costs_zero_extra_rounds():
    world, nodes = run_world(GcsEndpoint)
    _view, _mb, extra = reconfigure_and_measure(world, nodes)
    assert extra == pytest.approx(0.0)


def test_two_round_sends_propose_id_messages():
    world, nodes = run_world(TwoRoundVsEndpoint)
    reconfigure_and_measure(world, nodes)
    assert world.message_counts().get("ProposeIdMsg", 0) > 0


def test_sequential_sends_no_propose_id():
    world, nodes = run_world(SequentialVsEndpoint)
    reconfigure_and_measure(world, nodes)
    assert world.message_counts().get("ProposeIdMsg", 0) == 0


def test_first_view_transitional_set_is_self():
    # Everyone moves into the first view from a distinct singleton view,
    # so each transitional set is the node itself (Property 4.1).
    world, nodes = run_world(SequentialVsEndpoint, n=3)
    view = world.oracle.views_formed[-1]
    for node in nodes:
        assert dict(node.views)[view] == {node.pid}


def test_transitional_sets_after_second_change():
    world, nodes = run_world(SequentialVsEndpoint, n=3)
    world.partition([["p0", "p1"], ["p2"]])
    world.run()
    v = world.oracle.views_formed[-2]  # the {p0, p1} view
    t_sets = {node.pid: dict(node.views).get(v) for node in nodes[:2]}
    assert t_sets == {"p0": {"p0", "p1"}, "p1": {"p0", "p1"}}


ENDPOINT_OPTIONS = {
    "min-copies": {"forwarding": MinCopiesStrategy()},
    "compact-syncs": {"compact_syncs": True},
    "ack-gc": {"ack_gc_interval": 4},
}


@pytest.mark.parametrize("option", sorted(ENDPOINT_OPTIONS))
@pytest.mark.parametrize("endpoint_cls", [SequentialVsEndpoint, TwoRoundVsEndpoint])
def test_baselines_take_every_endpoint_option(endpoint_cls, option):
    # The baselines accept exactly GcsEndpoint's arguments, so every
    # SimWorld end-point option runs a partition and heal on them too.
    world = SimWorld(
        latency=ConstantLatency(1.0), endpoint_cls=endpoint_cls, **ENDPOINT_OPTIONS[option]
    )
    nodes = world.add_nodes([f"p{i}" for i in range(4)])
    world.start()
    world.run()
    for round_ in range(3):
        for node in nodes:
            node.send(f"pre-{node.pid}-{round_}")
    world.run()
    world.partition([["p0", "p1"], ["p2", "p3"]])
    world.run()
    world.heal()
    world.run()
    for node in nodes:
        node.send(f"post-{node.pid}")
    world.run()
    view = world.oracle.views_formed[-1]
    assert view.members == frozenset(world.nodes)
    run_verdict(
        world.trace, list(world.nodes), final_view=view, include=SAFETY_CODES
    ).raise_for()


def run_model_partition_merge(endpoint_cls, seed):
    """Form abcd, split it into ab | cd, merge it back - under the paper's
    invariants and refinement checkers, with scheduler steps between the
    membership actions so syncs and views interleave with them."""
    harness = ModelHarness(
        "abcd", seed=seed, endpoint_cls=endpoint_cls,
        scripts={p: [f"{p}0", f"{p}1"] for p in "abcd"},
    )
    scheduler = harness.scheduler("random", seed=seed)
    scheduler.add_hook(harness.invariant_hook())
    safety, ts = attach_refinement_checkers(scheduler, harness.world)

    def inject(actions):
        for action in actions:
            harness.system.execute(harness.mbrshp, action)
            scheduler.run(max_steps=3)

    inject(harness.driver.form_view("abcd")[1])
    scheduler.run(max_steps=60)
    for p in "abcd":
        harness.clients[p].queue(f"{p}-split")
    inject(harness.driver.partitioned_views([["a", "b"], ["c", "d"]])[1])
    scheduler.run(max_steps=60)
    merged, actions = harness.driver.form_view("abcd")
    inject(actions)
    scheduler.run(max_steps=20_000)
    assert harness.system.quiescent()
    harness.check_safety()
    for p in "abcd":
        assert harness.endpoints[p].current_view == merged
        assert ts.spec.current_view[p] == merged == safety.spec.current_view[p]


@pytest.mark.parametrize("endpoint_cls", [SequentialVsEndpoint, TwoRoundVsEndpoint])
def test_baselines_satisfy_the_papers_invariants_and_refinements(endpoint_cls):
    # A child only adds preconditions, so the Figure 10/11 proofs carry
    # over: invariants 6.1-7.2 and the R / TS refinements hold per step.
    for seed in range(20):
        run_model_partition_merge(endpoint_cls, seed)
