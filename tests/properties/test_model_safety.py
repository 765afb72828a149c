"""Hypothesis-driven adversarial model checking.

Hypothesis chooses the membership behaviour (which groups change, when,
whether views reach all members) and the scheduler interleaving; every
safety property, every invariant of Sections 6-7, and the refinement
mappings must hold on the resulting execution.  This is the strongest
evidence in the suite: it subjects the algorithm to schedules no
deployment test would produce.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checking import run_verdict
from repro.checking.refinement import attach_refinement_checkers
from repro.harness import ModelHarness

PROCS = "abcd"

membership_steps = st.lists(
    st.tuples(
        st.sampled_from(["change", "view", "partition"]),
        st.sets(st.sampled_from(list(PROCS)), min_size=1),
        st.integers(min_value=0, max_value=25),  # scheduler steps afterwards
    ),
    max_size=5,
)

MODEL_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def drive(harness, scheduler, steps):
    for kind, group, budget in steps:
        if kind == "change":
            actions = harness.driver.start_change_actions(group)
        elif kind == "view":
            _view, actions = harness.driver.form_view(group)
        else:
            rest = set(PROCS) - group
            groups = [group] + ([rest] if rest else [])
            _views, actions = harness.driver.partitioned_views(groups)
        for action in actions:
            if harness.mbrshp.is_enabled(action):
                harness.system.execute(harness.mbrshp, action)
        for _ in range(budget):
            if not scheduler.step():
                break


class TestAdversarialSafety:
    @MODEL_SETTINGS
    @given(steps=membership_steps, seed=st.integers(min_value=0, max_value=2**16))
    def test_safety_invariants_and_refinements(self, steps, seed):
        harness = ModelHarness(
            PROCS, seed=seed, scripts={p: [f"{p}{i}" for i in range(2)] for p in PROCS}
        )
        scheduler = harness.scheduler("random", seed=seed)
        scheduler.add_hook(harness.invariant_hook())
        attach_refinement_checkers(scheduler, harness.world)
        drive(harness, scheduler, steps)
        scheduler.run(max_steps=3_000)
        harness.check_safety()

    @MODEL_SETTINGS
    @given(steps=membership_steps, seed=st.integers(min_value=0, max_value=2**16))
    def test_eventual_stability_implies_liveness(self, steps, seed):
        harness = ModelHarness(
            PROCS, seed=seed, scripts={p: [f"{p}0"] for p in PROCS}
        )
        scheduler = harness.scheduler("fair", seed=seed)
        drive(harness, scheduler, steps)
        final = harness.form_view(PROCS)  # stabilise
        for p in PROCS:
            harness.clients[p].queue(f"{p}-stable")
        scheduler.run(max_steps=120_000)
        assert harness.system.quiescent()
        harness.check_safety()
        run_verdict(harness.gcs_trace(), final_view=final, include=["VS-LIVE"]).raise_for()

    @MODEL_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_random_driver_behaviour_is_always_safe(self, seed):
        harness = ModelHarness(
            PROCS, seed=seed, scripts={p: [f"{p}{i}" for i in range(2)] for p in PROCS}
        )
        scheduler = harness.scheduler("random", seed=seed)
        scheduler.add_hook(harness.invariant_hook())
        for action in harness.driver.random_behaviour(4):
            if harness.mbrshp.is_enabled(action):
                harness.system.execute(harness.mbrshp, action)
            scheduler.run(max_steps=17)
        scheduler.run(max_steps=4_000)
        harness.check_safety()
