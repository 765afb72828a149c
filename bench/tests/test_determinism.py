"""The same seed gives the same calls, the same counts, the same skeleton."""

import asyncio

import pytest

from bench.segment import run_segment
from bench.workloads import WORKLOADS, make_script


def _run(name: str, seed: int):
    workload = WORKLOADS[name]
    return asyncio.run(run_segment(workload, make_script(workload, seed), keep_deployment=True))


@pytest.mark.parametrize("name", ["steady.sim", "scale.sim"])
def test_same_seed_twice_is_the_same_run(name):
    first, second = _run(name, 5), _run(name, 5)
    assert first.ok and second.ok
    for field in ("ops_attempted", "ops_failed", "events", "deliveries", "sync_msgs"):
        assert getattr(first, field) == getattr(second, field), field
    assert first.deployment.skeleton() == second.deployment.skeleton()


def test_scripts_come_from_the_seed_alone():
    workload = WORKLOADS["churn.async"]
    assert make_script(workload, 3) == make_script(workload, 3)
    assert make_script(workload, 3) != make_script(workload, 4)


def test_overlay_victims_are_never_group_leaders():
    workload = WORKLOADS["scale.sim"]
    group = workload.n // workload.leaders
    for seed in range(8):
        assert all(victim % group != 0 for victim in make_script(workload, seed).victims)
