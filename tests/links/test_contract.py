"""The differential link-contract suite (CO_RFIFO, Figure 3).

Every test here runs three times - once per substrate driver (sim,
async, tcp) - through the ``driver_factory`` fixture of ``conftest``.
The assertions never mention the substrate: per-link FIFO, receiver-side
deduplication, masked drops, the symmetric partition/restrict matrix and
the uniform counters must hold identically everywhere, because they are
implemented exactly once, in :class:`repro.links.LinkCore`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.chaos.faults import FaultInjector, FaultModel
from repro.errors import SettleTimeoutError
from repro.net.latency import ConstantLatency
from repro.net.world import SimWorld
from repro.runtime.tcp import TcpFabric
from repro.runtime.transport import AsyncHub

from tests.conftest import each_message
from tests.links.conftest import run_contract


def payloads(received):
    return [message for _src, message in received]


# ----------------------------------------------------------------------
# delivery and per-link FIFO
# ----------------------------------------------------------------------


def test_point_to_point_delivery(driver_factory):
    async def scenario(d):
        await d.start(["a", "b"])
        for i in range(3):
            await d.send("a", "b", f"m{i}")
        await d.drain(lambda: len(d.received["b"]) == 3)
        assert d.received["b"] == [("a", "m0"), ("a", "m1"), ("a", "m2")]
        assert d.received["a"] == []
        assert d.core.totals() == {"str": 3}

    run_contract(driver_factory, scenario)


def test_per_link_fifo(driver_factory):
    async def scenario(d):
        await d.start(["a", "b"])
        expected = [f"m{i:02d}" for i in range(20)]
        for message in expected:
            await d.send("a", "b", message)
        await d.drain(lambda: len(d.received["b"]) == len(expected))
        assert payloads(d.received["b"]) == expected

    run_contract(driver_factory, scenario)


def test_fifo_survives_delay_and_reorder_faults(driver_factory):
    model = FaultModel(delay=1.0, reorder=1.0, jitter=2.0, seed=5)

    async def scenario(d):
        await d.start(["a", "b"])
        expected = [f"m{i:02d}" for i in range(15)]
        for message in expected:
            await d.send("a", "b", message)
        await d.drain(lambda: len(d.received["b"]) == len(expected))
        assert payloads(d.received["b"]) == expected
        assert d.injector.counters["delayed"] == len(expected)
        assert d.injector.counters["reordered"] == len(expected)

    run_contract(driver_factory, scenario, model)


def test_sim_fifo_survives_jitter_across_send_instants():
    """Sends from many virtual instants whose jittered arrivals the clamp
    pins onto an earlier carrier's: a scheduler that rebuilds the
    absolute arrival as ``now + (arrival - now)`` lands some of them one
    ulp early, overtaking the carrier they were clamped to."""
    from tests.links.conftest import SimContractDriver

    model = FaultModel(delay=1.0, reorder=1.0, jitter=3.0, seed=1)

    async def scenario(d):
        await d.start(["a", "b"])
        expected = [f"m{i:03d}" for i in range(300)]
        for i, message in enumerate(expected):
            # Irrational spacing: every send sees a different `now`.
            d.clock.schedule(i * 0.0137 * 2 ** 0.5, lambda m=message: d.net.send("a", "b", m))
        await d.drain()
        assert payloads(d.received["b"]) == expected

    run_contract(SimContractDriver, scenario, model)


# ----------------------------------------------------------------------
# the fault pipeline: masked drops, deduplicated duplicates
# ----------------------------------------------------------------------


def test_duplicates_occupy_the_wire_but_never_reach_the_endpoint(driver_factory):
    model = FaultModel(duplicate=1.0, seed=3)

    async def scenario(d):
        await d.start(["a", "b"])
        for i in range(5):
            await d.send("a", "b", f"m{i}")
        await d.drain(lambda: d.core.stats.delivered["DuplicateCopy"] == 5)
        # The endpoint saw each message exactly once ...
        assert payloads(d.received["b"]) == [f"m{i}" for i in range(5)]
        # ... but the wire genuinely carried (and counted) both copies,
        # and the receiving side of the core suppressed the second one.
        assert d.core.totals() == {"str": 5, "DuplicateCopy": 5}
        assert d.injector.counters["duplicated"] == 5
        assert d.injector.counters["suppressed"] == 5

    run_contract(driver_factory, scenario, model)


def test_drop_is_masked_as_retransmission_latency(driver_factory):
    model = FaultModel(drop=1.0, seed=11)

    async def scenario(d):
        await d.start(["a", "b"])
        for i in range(3):
            await d.send("a", "b", f"m{i}")
        await d.drain(lambda: len(d.received["b"]) == 3)
        # CO_RFIFO is realised over a lossy wire by retransmission:
        # every "dropped" message still arrives, late, and in order.
        assert payloads(d.received["b"]) == ["m0", "m1", "m2"]
        assert d.injector.counters["dropped"] == 3

    run_contract(driver_factory, scenario, model)


# ----------------------------------------------------------------------
# the partition/reachability matrix
# ----------------------------------------------------------------------


def test_partition_blocks_both_directions(driver_factory):
    async def scenario(d):
        await d.start(["a", "b", "c"])
        d.core.partition([["a"], ["b", "c"]])
        assert not d.core.connected("a", "b")
        assert not d.core.connected("b", "a")
        await d.send("a", "b", "cut1")
        await d.send("b", "a", "cut2")
        await d.send("b", "c", "intra")
        await d.drain(lambda: len(d.received["c"]) == 1)
        assert d.received["a"] == []
        assert d.received["b"] == []
        assert d.received["c"] == [("b", "intra")]

    run_contract(driver_factory, scenario)


def test_unmentioned_processes_join_the_residual_component(driver_factory):
    async def scenario(d):
        await d.start(["a", "b", "c"])
        d.core.partition([["a"]])  # b and c stay in group 0 together
        await d.send("b", "c", "residual")
        await d.send("a", "b", "cut")
        await d.drain(lambda: len(d.received["c"]) == 1)
        assert d.received["c"] == [("b", "residual")]
        assert d.received["b"] == []

    run_contract(driver_factory, scenario)


def test_restrict_is_symmetric(driver_factory):
    async def scenario(d):
        await d.start(["a", "b", "c"])
        d.core.restrict("a", ["c"])
        # a's allowed set excludes b: neither side can reach the other.
        await d.send("a", "b", "blocked")
        await d.send("b", "a", "blocked-too")
        await d.send("a", "c", "ok1")
        await d.send("c", "a", "ok2")
        await d.drain(lambda: len(d.received["c"]) == 1 and len(d.received["a"]) == 1)
        assert d.received["b"] == []
        assert d.received["c"] == [("a", "ok1")]
        assert d.received["a"] == [("c", "ok2")]

    run_contract(driver_factory, scenario)


def test_heal_restores_components_and_lifts_restrictions(driver_factory):
    async def scenario(d):
        await d.start(["a", "b", "c"])
        d.core.partition([["a"], ["b", "c"]])
        d.core.restrict("b", ["c"])
        d.core.heal()
        await d.send("a", "b", "m1")
        await d.send("b", "a", "m2")
        await d.drain(lambda: len(d.received["b"]) == 1 and len(d.received["a"]) == 1)
        assert d.received["b"] == [("a", "m1")]
        assert d.received["a"] == [("b", "m2")]

    run_contract(driver_factory, scenario)


def test_partition_then_heal_regression(driver_factory):
    """The PR 1 regression, phrased uniformly for every substrate.

    The same message *object* travels the same link twice, a partition
    cuts the link, a blocked send must not leak, and after the heal the
    link carries traffic again - with exact delivery counts throughout.
    The original bug (in-flight entries retired by message identity
    instead of by scheduled event) made exactly this count drift.
    """

    async def scenario(d):
        same = "dup"
        await d.start(["a", "b"])
        await d.send("a", "b", same)
        await d.send("a", "b", same)
        await d.drain(lambda: len(d.received["b"]) == 2)
        assert payloads(d.received["b"]) == [same, same]

        d.core.partition([["a"], ["b"]])
        await d.send("a", "b", "blocked")
        await d.drain()
        assert payloads(d.received["b"]) == [same, same]

        d.core.heal()
        await d.send("a", "b", "after")
        await d.drain(lambda: len(d.received["b"]) == 3)
        assert payloads(d.received["b"]) == [same, same, "after"]

    run_contract(driver_factory, scenario)


# ----------------------------------------------------------------------
# the in-flight ledger
# ----------------------------------------------------------------------


def test_ledger_balances_after_faults_and_a_cut(driver_factory):
    """Every admitted copy is resolved once: delivered or bounced."""
    model = FaultModel(duplicate=0.5, drop=0.3, delay=0.5, jitter=2.0, seed=9)

    async def scenario(d):
        await d.start(["a", "b", "c"])
        for i in range(10):
            await d.send("a", "b", f"m{i}")
            await d.send("c", "b", i)
        d.core.partition([["a"], ["b", "c"]])  # cuts copies still in transit
        await d.send("c", "b", "after-cut")
        await d.drain()
        stats = d.core.stats
        assert sum(stats.sent.values()) == (
            sum(stats.delivered.values()) + sum(stats.bounced.values())
        )

    run_contract(driver_factory, scenario, model)


# The runtime fabric's own duties, stated once over both legs.
on_both_legs = pytest.mark.parametrize("fabric", [AsyncHub, TcpFabric], ids=["hub", "tcp"])


@on_both_legs
def test_a_fabric_admits_a_copy_when_it_is_sent(fabric):
    """``send`` admits every copy to the ledger before it returns - no
    outbox holds a copy the core does not know of - and admits nothing
    across a cut."""

    async def scenario():
        f = fabric()
        f.attach("a", lambda run: None)
        f.attach("b", lambda run: None)
        try:
            f.send("a", ["b"], "m")
            assert f.core.in_flight == 1  # no yield since the send
            assert f.core.stats.sent == {"str": 1}
            await f.quiesce(timeout=2)
            f.core.partition([["a"], ["b"]])
            f.send("a", ["b"], "cut")
            assert f.core.in_flight == 0
            assert f.core.stats.sent == {"str": 1}
        finally:
            await f.close()

    asyncio.run(scenario())


@on_both_legs
def test_a_fabric_admits_nothing_for_an_unattached_pid(fabric):
    async def scenario():
        f = fabric()
        f.attach("a", lambda run: None)
        try:
            f.send("a", ["ghost"], "m")
            assert f.core.in_flight == 0
            assert f.core.stats.sent == {}
        finally:
            await f.close()

    asyncio.run(scenario())


@on_both_legs
def test_a_fabric_refuses_a_second_attach_of_one_pid(fabric):
    async def scenario():
        f = fabric()
        f.attach("a", lambda run: None)
        try:
            with pytest.raises(ValueError, match="duplicate process 'a'"):
                f.attach("a", lambda run: None)
        finally:
            await f.close()

    asyncio.run(scenario())


@on_both_legs
def test_close_delivers_a_send_that_returned(fabric):
    """A send its caller has returned from is handed over before
    ``close`` cancels the pumps: nothing admitted is dropped."""

    async def scenario():
        f = fabric()
        received = []
        f.attach("a", lambda run: None)
        f.attach("b", each_message(lambda src, m: received.append((src, m))))
        f.send("a", ["b"], "m")  # no yield before the close
        await f.close()
        assert received == [("a", "m")]
        assert f.core.in_flight == 0

    asyncio.run(scenario())


# A handler's run, as it saw it: one [(src, [payloads])] list per call.
def recording_runs(runs):
    return lambda run: runs.append([(src, list(payloads)) for src, payloads in run])


class SimLeg:
    """The simulator behind the fabric calls of the run-shape tests: a
    world's ``attach`` / ``send``, settled for ``quiesce``."""

    def __init__(self) -> None:
        self.world = SimWorld(latency=ConstantLatency(1.0))
        self.attach, self.send = self.world.attach, self.world.send

    async def quiesce(self, timeout=None) -> None:
        self.world.settle()

    async def close(self) -> None:
        pass


@pytest.mark.parametrize("fabric", [AsyncHub, TcpFabric, SimLeg], ids=["hub", "tcp", "sim"])
def test_carriers_queued_in_one_wake_up_reach_the_handler_as_one_run(fabric):
    """Carriers queued from k sources with no yield between them: the hub
    hands its pump's wake-up over as one run, in queue order, and the
    simulator the carriers of one arrival instant, in send order; a
    socket reads them on k connections, so each frame is a run of its
    own."""

    async def scenario():
        f = fabric()
        runs = []
        sources = ["s3", "s1", "s2"]  # queue order, not sorted order
        for pid in sources:
            f.attach(pid, lambda run: None)
        f.attach("z", recording_runs(runs))
        try:
            for pid in sources:
                f.send(pid, ["z"], f"from-{pid}")
                f.send(pid, ["z"], f"again-{pid}")  # rides the same carrier
            await f.quiesce(timeout=2)
        finally:
            await f.close()
        groups = [(pid, [f"from-{pid}", f"again-{pid}"]) for pid in sources]
        if fabric is not TcpFabric:
            assert runs == [groups]
        else:
            assert sorted(runs) == sorted([group] for group in groups)

    asyncio.run(scenario())


@on_both_legs
def test_a_delayed_carrier_ends_a_run_and_fifo_holds(fabric):
    """A fault-delayed copy travels in a carrier of its own after its
    delay; no run carries one behind another carrier, and every link
    stays FIFO."""

    async def scenario():
        faults = FaultInjector(FaultModel(delay=1.0, jitter=2.0, seed=3), time_scale=0.003)
        f = fabric(faults=faults)
        runs = []
        for pid in ("a", "b"):
            f.attach(pid, lambda run: None)
        f.attach("z", recording_runs(runs))
        sent = {pid: [f"{pid}{i}" for i in range(5)] for pid in ("a", "b")}
        try:
            for i in range(5):
                for pid in ("a", "b"):
                    f.send(pid, ["z"], sent[pid][i])
            await f.quiesce(timeout=5)
        finally:
            await f.close()
        assert faults.counters["delayed"] == 10
        assert all(len(run) == 1 and len(run[0][1]) == 1 for run in runs)
        for pid in ("a", "b"):
            assert [run[0][1][0] for run in runs if run[0][0] == pid] == sent[pid]

    asyncio.run(scenario())


def test_a_tcp_frame_is_one_run():
    """A burst queued on one link leaves as one batch frame and arrives
    as one run of one group, its copies in send order."""

    async def scenario():
        f = TcpFabric()
        runs = []
        f.attach("a", lambda run: None)
        f.attach("z", recording_runs(runs))
        try:
            for i in range(5):
                f.send("a", ["z"], i)
            await f.quiesce(timeout=2)
        finally:
            await f.close()
        assert runs == [[("a", [0, 1, 2, 3, 4])]]

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# uniform counters
# ----------------------------------------------------------------------


def test_totals_and_per_link_counters_are_uniform(driver_factory):
    async def scenario(d):
        await d.start(["a", "b", "c"])
        await d.send("a", "b", "m1")
        await d.send("a", "b", "m2")
        await d.send("b", "c", "m3")
        await d.send("a", "c", 4)
        await d.drain(
            lambda: len(d.received["b"]) == 2 and len(d.received["c"]) == 2
        )
        assert d.core.totals() == {"str": 3, "int": 1}
        assert d.core.stats.per_link[("a", "b")] == 2
        assert d.core.stats.per_link[("b", "c")] == 1
        assert d.core.stats.per_link[("a", "c")] == 1
        d.core.reset_counters()
        assert d.core.totals() == {}
        assert sum(d.core.stats.per_link.values()) == 0

    run_contract(driver_factory, scenario)


# ----------------------------------------------------------------------
# settle-timeout diagnostics (per-link counters in the message)
# ----------------------------------------------------------------------


def test_sim_settle_timeout_reports_busiest_links():
    world = SimWorld()
    world.add_nodes(["a", "b", "c"])
    world.start()
    with pytest.raises(SettleTimeoutError) as excinfo:
        world.settle(max_events=1)
    assert "busiest links:" in str(excinfo.value)


def test_async_quiesce_timeout_reports_busiest_links():
    async def scenario():
        # A retransmission penalty of 0.2-0.6 s holds the copy past the
        # deadline.
        hub = AsyncHub(faults=FaultInjector(FaultModel(drop=1.0, penalty=0.4)))
        hub.register("a", lambda run: None)
        hub.register("b", lambda run: None)
        hub.send("a", ["b"], "slow")
        try:
            with pytest.raises(SettleTimeoutError) as excinfo:
                await hub.quiesce(timeout=0.05)
            assert "busiest links:" in str(excinfo.value)
            assert "a->b: 1" in str(excinfo.value)
        finally:
            await hub.close()

    asyncio.run(scenario())


def test_tcp_quiesce_timeout_reports_busiest_links():
    # A retransmission penalty of 0.3-0.9 s holds the frame on the socket
    # fabric well past the deadline.
    faults = FaultInjector(FaultModel(drop=1.0, penalty=200.0, seed=1), time_scale=0.003)

    async def scenario():
        fabric = TcpFabric(faults=faults)
        fabric.attach("a", lambda run: None)
        fabric.attach("b", lambda run: None)
        fabric.send("a", ["b"], "slow")
        try:
            with pytest.raises(SettleTimeoutError) as excinfo:
                await fabric.quiesce(timeout=0.2)
            assert "wire copies in flight: 1" in str(excinfo.value)
            assert "busiest links:" in str(excinfo.value)
            assert "a->b: 1" in str(excinfo.value)
        finally:
            await fabric.close()

    asyncio.run(scenario())
