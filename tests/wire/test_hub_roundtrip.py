"""Every message the runtime carries is a wire type, carried exactly.

The E21 scenarios and the server-fault and overlay chaos seeds run on
the asyncio hub with ``wire_hub`` framing each message through the
codec; a future message type the schema does not know fails here, in
tier-1, instead of on the first socket that meets it.
"""

from __future__ import annotations

import pytest

from repro.deploy import SCENARIOS, run_scenario
from repro.experiments.chaos_sweep import chaos_sweep


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_e21_scenarios_run_through_the_codec(name, wire_hub):
    deployment = run_scenario("async", SCENARIOS[name])
    deployment.check()
    assert {"AppMsg", "ViewMsg", "SyncMsg", "StartChangeNotice", "ViewNotice"} <= set(wire_hub)


def test_server_fault_chaos_seeds_run_through_the_codec(wire_hub):
    result = chaos_sweep("async", episodes=10, seed_base=0, servers=3)
    assert result.ok, result.failures
    assert result.server_ops  # the tier was hit: proposals crossed too
    assert wire_hub["ServerProposal"] and wire_hub["SyncMsg"]


def test_overlay_chaos_seeds_run_through_the_codec(wire_hub):
    result = chaos_sweep("async", episodes=3, seed_base=300, overlay_leaders=2)
    assert result.ok, result.failures
    assert wire_hub["UpSync"] and wire_hub["AggregatedSync"]
