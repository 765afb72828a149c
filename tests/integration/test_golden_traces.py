"""Golden-trace conformance: sim-recorded skeletons bind the substrates.

The E21 claim made mechanical: record a scenario's time-free trace
skeleton (per-process view segments with their sends and per-sender
delivery orders) on the simulator, then require the asyncio and TCP
runs of the *same scenario script* to refine it exactly - same
segments, same orders - via the verdict engine's VS-SKEL rule.  A
seeded chaos schedule gets the same treatment.

Honest limit: ``scenario_crash_mid_sync`` races a crash against
in-flight deliveries, and whether a survivor's delivery lands before or
after the crash-induced view change is a substrate scheduling fact, not
a correctness fact.  Its skeleton is therefore *per-substrate*
deterministic (asserted below) but not substrate-independent, and it is
deliberately absent from the cross-substrate set.
"""

import pytest

from repro.chaos import ChaosPlan, ChaosRunner, FaultModel
from repro.checking import TraceSkeleton, extract_skeleton, run_verdict
from repro.deploy import (
    run_scenario,
    scenario_churn,
    scenario_crash_mid_sync,
    scenario_reconfiguration,
    scenario_self_delivery,
    scenario_virtual_synchrony,
)

#: Scenarios whose delivery interleavings are substrate-independent.
STABLE_SCENARIOS = {
    "self_delivery": scenario_self_delivery,
    "reconfiguration": scenario_reconfiguration,
    "virtual_synchrony": scenario_virtual_synchrony,
    "churn": scenario_churn,
}

#: A fault-free chaos schedule verified stable across substrates.
CHAOS_SEED = 7


def chaos_plan():
    return ChaosPlan.generate(CHAOS_SEED).with_faults(FaultModel())


@pytest.fixture(scope="module")
def sim_goldens():
    """Lazily recorded sim skeletons, one sim run per scenario."""
    cache = {}

    def record(name):
        if name not in cache:
            deployment = run_scenario("sim", STABLE_SCENARIOS[name])
            cache[name] = deployment.skeleton()
        return cache[name]

    return record


@pytest.mark.parametrize("name", sorted(STABLE_SCENARIOS))
@pytest.mark.parametrize("substrate", ["async", "tcp"])
def test_substrate_run_refines_the_sim_golden(name, substrate, sim_goldens):
    golden = sim_goldens(name)
    deployment = run_scenario(substrate, STABLE_SCENARIOS[name])
    verdict = deployment.verdict(golden=golden)
    assert verdict.ok, verdict.to_json(indent=2)
    assert "VS-SKEL" in verdict.rules


@pytest.mark.parametrize("name", sorted(STABLE_SCENARIOS))
def test_sim_recording_is_repeatable(name, sim_goldens):
    golden = sim_goldens(name)
    again = run_scenario("sim", STABLE_SCENARIOS[name]).skeleton()
    assert golden.to_json() == again.to_json()


def test_golden_round_trips_through_json(sim_goldens):
    golden = sim_goldens("reconfiguration")
    assert TraceSkeleton.from_json(golden.to_json()) == golden


def test_perturbed_golden_is_rejected(sim_goldens):
    """A skeleton the run does not match must fail with VS-SKEL."""
    golden = sim_goldens("reconfiguration")
    deployment = run_scenario("sim", STABLE_SCENARIOS["reconfiguration"])
    perturbed = TraceSkeleton.from_json(golden.to_json())
    segments = next(iter(perturbed.procs.values()))
    sends = next(s["sends"] for s in segments if s["sends"])
    sends.append("never-sent")
    verdict = deployment.verdict(golden=perturbed)
    assert not verdict.ok
    assert verdict.primary.code == "VS-SKEL"


def test_seeded_chaos_episode_is_skeleton_stable_across_substrates():
    plan = chaos_plan()
    episode = ChaosRunner("sim").run(plan)
    assert episode.ok, episode.summary()
    golden = extract_skeleton(episode.trace)
    for substrate in ("async", "tcp"):
        other = ChaosRunner(substrate).run(plan)
        assert other.ok, other.summary()
        verdict = run_verdict(
            other.trace, list(plan.processes), golden=golden
        )
        assert verdict.ok, f"{substrate}: {verdict.to_json(indent=2)}"


@pytest.mark.parametrize("substrate", ["sim", "async", "tcp"])
def test_crash_mid_sync_is_per_substrate_deterministic(substrate):
    """The honest limit, held to its exact shape: crash_mid_sync need
    not match across substrates, but each substrate must reproduce its
    own skeleton run over run."""
    first = run_scenario(substrate, scenario_crash_mid_sync).skeleton()
    second = run_scenario(substrate, scenario_crash_mid_sync).skeleton()
    assert first.to_json() == second.to_json()
