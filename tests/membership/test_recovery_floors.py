"""A recovering membership server comes back with the tier's floors alone.

Whatever a server knew before it crashed, its recovery reads only what
the tier keeps durably: the round and view-counter floors of the
:class:`~repro.membership.state.WatermarkStore` and the cid registry all
servers share.  The moment ``recover_server`` has restored a server -
before the rejoin round it starts - the server sits exactly on both
floors, serves no client, and the shared registry is what it was.  The check runs over a hand-written crash/recover sequence
and over seeded simulator chaos episodes with a three-server tier.
"""

import pytest

from repro.chaos import ChaosPlan, ChaosRunner
from repro.membership import MembershipServer, MembershipTier
from tests.membership.test_server_faults import Driver


@pytest.fixture
def recoveries(monkeypatch):
    """Check every recovery the moment the server is restored, before the
    rejoin round it starts; yields the recovered server ids."""
    recovered = []
    recover, restore = MembershipTier.recover_server, MembershipServer.restore
    tiers = []

    def recover_server(tier, sid):
        tiers.append(tier)
        try:
            recover(tier, sid)
        finally:
            tiers.pop()
        recovered.append(sid)

    def restored(server, *args, **kwargs):
        (tier,) = tiers
        registry = dict(tier._cid_registry)
        restore(server, *args, **kwargs)
        assert server.round == tier.store.round_floor()
        assert server.max_counter == tier.store.counter_floor()
        assert not server.local_clients and not server.active_clients()
        assert tier._cid_registry == registry

    monkeypatch.setattr(MembershipTier, "recover_server", recover_server)
    monkeypatch.setattr(MembershipServer, "restore", restored)
    return recovered


def test_driver_recoveries_take_the_floors(recoveries):
    driver = Driver(clients=("a", "b", "c", "d"), servers=3)
    tier = driver.tier
    first = driver.do(tier.crash_server)
    driver.do(tier.set_members, ["a", "b", "c"])
    driver.do(tier.recover_server, first)
    driver.do(tier.set_members, ["a", "b", "c", "d"])
    # All but one server down, then both back, one at a time.
    down = [driver.do(tier.crash_server), driver.do(tier.crash_server)]
    assert len(tier.alive_servers()) == 1
    driver.do(tier.set_members, ["a", "b"])
    for sid in down:
        driver.do(tier.recover_server, sid)
        driver.do(tier.set_members, ["a", "b", "c"])
    assert recoveries == [first, *down]
    counters = [v.vid.counter for v in tier.views_formed]
    assert counters == sorted(set(counters))


def test_sim_chaos_recoveries_take_the_floors(recoveries):
    plans = [
        plan
        for plan in (ChaosPlan.generate(seed, servers=3) for seed in range(12))
        if any(op.kind == "server_recover" for op in plan.ops)
    ]
    assert len(plans) >= 4
    for plan in plans:
        episode = ChaosRunner("sim").run(plan)
        assert episode.ok, episode.summary()
    assert len(recoveries) >= len(plans)
