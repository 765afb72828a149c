"""Server crashes on every substrate: the paper's Section-8 assumption,
relaxed end to end.

The membership tier is a first-class fault domain now: a server can
crash (its clients fail over), recover from the durable watermark store
(peers adopt it - a rejoin, not a fork), and the tier can partition
independently of the client network.  Each run is audited with the full
verdict battery, which includes the two server fault-domain rules, so
Local Monotonicity surviving a server death is *checked*, not assumed.
"""

import pytest

from repro.checking.events import MbrshpFormEvent
from repro.deploy import SUBSTRATES, run_scenario


def payloads(deployment, pid):
    return [m for _s, m in deployment.delivered(pid)]


async def scenario_server_crash_recover(d):
    """Crash one membership server mid-traffic, then bring it back."""
    await d.setup(["a", "b", "c"])
    await d.send("a", "before")
    sid = await d.server_crash()
    assert sid in d.server_ids()
    await d.send("b", "during")
    await d.server_recover(sid)
    await d.send("c", "after")
    await d.settle()


@pytest.mark.parametrize("substrate", SUBSTRATES)
class TestServerFaultMatrix:
    def _run(self, substrate, scenario):
        return run_scenario(substrate, scenario, servers=3)

    def test_monotonicity_survives_server_death(self, substrate):
        deployment = self._run(substrate, scenario_server_crash_recover)
        verdict = deployment.verdict()
        assert verdict.ok, verdict.to_json(indent=2)
        assert {"MBRSHP-SRV-FORK", "MBRSHP-SRV-MONO"} <= set(verdict.rules)
        # No payload is lost to the server fault: the clients never left.
        for pid in "abc":
            assert payloads(deployment, pid) == ["before", "during", "after"]
        # Views kept strictly increasing at every client across the
        # crash and the recovery (VS-MONO is in the battery, but assert
        # the concrete counters too).
        for pid in "abc":
            counters = [v.vid.counter for v in deployment.views(pid)]
            assert counters == sorted(set(counters))

    def test_tier_traffic_is_link_accounted(self, substrate):
        """Tier control messages ride the same LinkCore as data traffic:
        they show up in the uniform per-kind counters."""
        deployment = self._run(substrate, scenario_server_crash_recover)
        totals = deployment.link_totals()
        for kind in ("StartChangeNotice", "ViewNotice"):
            assert totals.get(kind, 0) > 0, (kind, totals)
        if substrate != "sim":
            # Multi-server substrates also gossip proposals server-to-server.
            assert totals.get("ServerProposal", 0) > 0, totals

    def test_formations_recorded_on_this_substrate(self, substrate):
        deployment = self._run(substrate, scenario_server_crash_recover)
        formations = deployment.trace.of_type(MbrshpFormEvent)
        assert formations, "tier-mode runs must record view formations"
        assert {e.proc for e in formations} <= set(deployment.server_ids())


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_server_partition_and_heal(substrate):
    """Split the server tier itself; clients follow their home server."""

    async def scenario(d):
        await d.setup(["a", "b", "c", "d"])
        await d.send("a", "joint")
        servers = d.server_ids()
        await d.server_partition([servers[:1], servers[1:]])
        await d.settle()
        sides = [d.current_view(p).members for p in "abcd"]
        assert all(len(s) < 4 for s in sides), sides
        await d.heal()
        await d.settle()
        for pid in "abcd":
            assert d.current_view(pid).members == {"a", "b", "c", "d"}

    deployment = run_scenario(substrate, scenario, servers=2)
    verdict = deployment.verdict()
    assert verdict.ok, verdict.to_json(indent=2)


def test_oracle_substrate_has_no_server_fault_domain():
    """The paper's original model is still available: oracle membership
    reports no crashable servers and refuses the server-fault API."""

    async def scenario(d):
        await d.setup(["a", "b"])
        assert d.server_ids() == []
        with pytest.raises(ValueError, match="no membership servers"):
            await d.server_crash()

    run_scenario("sim", scenario)
