"""Unit tests for the deployment layer and the membership tier.

The integration matrix (tests/integration/test_scenarios.py) exercises
the three backends end to end; here the pieces are tested in isolation -
the tier over a synchronous loopback link, the backend registry, and the
Deployment contract itself.
"""

import inspect

import pytest

from repro.core.forwarding import MinCopiesStrategy
from repro.core.runner import EndpointRunner
from repro.deploy import (
    SUBSTRATES,
    AsyncDeployment,
    SimDeployment,
    TcpDeployment,
    make_deployment,
    run_scenario,
)
from repro.errors import SpecificationViolation
from repro.links import LinkCore
from repro.membership import (
    MembershipTier,
    StartChangeNotice,
    ViewNotice,
)
from repro.types import VID_ZERO, make_view


class LoopbackLink:
    """A buffering TierLink: ``send`` is fire-and-forget, as the
    protocol demands, and messages are delivered FIFO on ``drain()`` -
    after the tier has finished its control step, the way every real
    substrate's event loop does.  (Delivering synchronously inside
    ``send`` would let a
    proposal reach a peer whose reachable-set update is still pending
    in the same tier operation, which no asynchronous transport does.)

    Server-to-server messages go into the destination handler; client-
    bound notices land in per-client inboxes so tests can assert on the
    exact MBRSHP notice stream.
    """

    def __init__(self):
        self.handlers = {}
        self.inboxes = {}
        self.queue = []

    def attach(self, sid, handler):
        self.handlers[sid] = handler

    def send(self, src, targets, message):
        self.queue.extend((src, dst, message) for dst in targets)

    def drain(self):
        while self.queue:
            src, dst, message = self.queue.pop(0)
            if dst in self.handlers:
                self.handlers[dst]([(src, [message])])
            else:
                self.inboxes.setdefault(dst, []).append(message)


class TierDriver:
    """A started tier plus its link, draining after every operation."""

    def __init__(self, clients=("a", "b", "c"), servers=1):
        self.link = LoopbackLink()
        self.tier = MembershipTier(self.link, servers=servers, links=LinkCore())
        for pid in clients:
            self.tier.add_client(pid)
        self.tier.start()
        self.link.drain()

    def do(self, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        self.link.drain()
        return result

    def inbox(self, pid):
        return self.link.inboxes.get(pid, [])


def started_tier(clients=("a", "b", "c"), servers=1):
    driver = TierDriver(clients=clients, servers=servers)
    return driver, driver.tier


class TestMembershipTier:
    def test_start_forms_full_view(self):
        driver, tier = started_tier()
        assert len(tier.views_formed) == 1
        view = tier.views_formed[0]
        assert view.members == {"a", "b", "c"}
        assert view.vid != VID_ZERO

    def test_notice_discipline_per_client(self):
        # Figure 2: every view is preceded by a start_change whose cid
        # becomes the view's startId for that client.
        driver, tier = started_tier()
        for pid in ("a", "b", "c"):
            inbox = driver.inbox(pid)
            kinds = [type(m) for m in inbox]
            assert kinds == [StartChangeNotice, ViewNotice]
            start, view = inbox
            assert view.view.start_id(pid) == start.cid
            assert view.view.members <= start.members

    def test_add_client_alone_does_not_join(self):
        driver, tier = started_tier()
        tier.add_client("d")
        assert tier.active_members() == {"a", "b", "c"}
        assert len(tier.views_formed) == 1
        driver.do(tier.set_members, ["a", "b", "c", "d"])
        assert tier.active_members() == {"a", "b", "c", "d"}
        assert tier.views_formed[-1].members == {"a", "b", "c", "d"}

    def test_set_members_unknown_raises(self):
        driver, tier = started_tier()
        with pytest.raises(ValueError, match="unknown clients"):
            tier.set_members(["a", "z"])

    def test_set_members_noop_returns_false(self):
        driver, tier = started_tier()
        assert driver.do(tier.set_members, ["a", "b", "c"]) is False
        assert len(tier.views_formed) == 1

    def test_cids_stay_unique_across_reconfigurations(self):
        driver, tier = started_tier()
        driver.do(tier.set_members, ["a", "b"])
        driver.do(tier.set_members, ["a", "b", "c"])
        for pid in ("a", "b", "c"):
            cids = [m.cid for m in driver.inbox(pid) if isinstance(m, StartChangeNotice)]
            assert len(cids) == len(set(cids))
            assert cids == sorted(cids)

    def test_plan_partition_components(self):
        driver, tier = started_tier(clients=("a", "b", "c", "d", "e"), servers=3)
        plan = tier.plan_partition([["a", "b"], ["c", "d"]])
        # One component per group (clients + its server), a singleton for
        # the spare server, and a singleton for the stray client e.
        assert sorted(map(sorted, plan.components)) == sorted(
            map(sorted, [["a", "b", "srv:0"], ["c", "d", "srv:1"], ["srv:2"], ["e"]])
        )

    def test_partition_detaches_and_heal_reattaches(self):
        driver, tier = started_tier(clients=("a", "b", "c"), servers=2)
        plan = tier.plan_partition([["a", "b"]])
        driver.do(tier.apply_partition, plan)
        assert tier.active_members() == {"a", "b"}
        assert tier.views_formed[-1].members == {"a", "b"}
        driver.do(tier.heal)
        assert tier.active_members() == {"a", "b", "c"}
        assert tier.views_formed[-1].members == {"a", "b", "c"}

    def test_explicit_leave_survives_heal(self):
        driver, tier = started_tier()
        driver.do(tier.set_members, ["a", "b"])
        driver.do(tier.heal)
        # c left by reconfiguration, not by partition: heal must not
        # resurrect it.
        assert tier.active_members() == {"a", "b"}

    def test_local_monotonicity_across_server_move(self):
        # When a client's home server changes, the new server's counters
        # must exceed everything the client may have installed.
        driver, tier = started_tier(clients=("a", "b", "c", "d"), servers=1)
        plan = tier.plan_partition([["a", "b"], ["c", "d"]])
        driver.do(tier.apply_partition, plan)
        driver.do(tier.heal)
        for pid in ("a", "b", "c", "d"):
            vids = [m.view.vid for m in driver.inbox(pid) if isinstance(m, ViewNotice)]
            assert vids == sorted(vids)
            assert len(set(vids)) == len(vids)

    def test_crashed_client_not_resurrected_by_move(self):
        driver, tier = started_tier(clients=("a", "b", "c"), servers=1)
        driver.do(tier.client_crashed, "c")
        assert tier.views_formed[-1].members == {"a", "b"}
        plan = tier.plan_partition([["a", "c"], ["b"]])
        driver.do(tier.apply_partition, plan)
        # c moved homes while crashed; the views of the two components
        # both exclude it.
        assert {v.members for v in tier.views_formed[-2:]} == {
            frozenset({"a"}),
            frozenset({"b"}),
        }

    def test_watermark_tracks_max_counter(self):
        driver, tier = started_tier()
        first = tier.watermark()
        driver.do(tier.set_members, ["a", "b"])
        assert tier.watermark() > first


class TestBackendRegistry:
    def test_unknown_substrate_raises(self):
        with pytest.raises(ValueError, match="unknown substrate"):
            make_deployment("carrier-pigeon")

    def test_sim_backend_constructs_eagerly(self):
        deployment = make_deployment("sim")
        assert isinstance(deployment, SimDeployment)
        assert deployment.name == "sim"

    def test_substrate_names_match_backends(self):
        assert set(SUBSTRATES) == {"sim", "async", "tcp"}


class TestDeploymentContract:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_observables_consistent(self, substrate):
        async def scenario(deployment):
            await deployment.setup(["a", "b"])
            await deployment.send("a", "x")
            await deployment.settle()

        deployment = run_scenario(substrate, scenario)
        assert deployment.processes() == ["a", "b"]
        for pid in "ab":
            assert ("a", "x") in deployment.delivered(pid)
            assert deployment.current_view(pid).members == {"a", "b"}
            assert deployment.views(pid)[-1] == deployment.current_view(pid)
        assert len(deployment.trace) > 0
        deployment.check()

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_failing_check_raises_the_coded_violation(self, substrate):
        async def scenario(deployment):
            await deployment.setup(["a", "b"])

        deployment = run_scenario(substrate, scenario)
        never = make_view(99, ["a", "b"], {"a": 99, "b": 99})
        with pytest.raises(SpecificationViolation, match="Liveness") as raised:
            deployment.check(final_view=never)
        violation = raised.value.violation
        assert violation == deployment.verdict(final_view=never).primary
        assert violation.code == "VS-LIVE"
        assert violation.witness_index == len(deployment.trace)

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_every_substrate_hosts_end_points_the_same_way(self, substrate):
        async def scenario(deployment):
            await deployment.setup(["a", "b", "c"])
            await deployment.send("a", "x")
            await deployment.settle()
            await deployment.crash("c")

        deployment = run_scenario(substrate, scenario)
        for pid, host in deployment.nodes.items():
            assert isinstance(host, EndpointRunner)
            assert host.pid == host.endpoint.pid == pid
            assert [view for view, _transitional in host.views] == deployment.views(pid)
            assert all(pid in transitional for _view, transitional in host.views)
            assert host.delivered == deployment.delivered(pid)
            assert host.current_view == deployment.current_view(pid)
            assert host.crashed == (pid == "c")
        assert deployment.current_view("a").members == {"a", "b"}

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_every_substrate_takes_a_forwarding_strategy(self, substrate):
        strategy = MinCopiesStrategy()

        async def scenario(deployment):
            await deployment.setup(["a", "b", "c"])

        deployment = run_scenario(substrate, scenario, forwarding=strategy)
        assert sorted(deployment.nodes) == ["a", "b", "c"]
        for host in deployment.nodes.values():
            assert host.endpoint.forwarding is strategy


class TestTracerContract:
    """What ``bench/tracing.py`` patches, stated from this side: it looks
    the four timed operations up in each backend class's *own*
    ``__dict__`` (``pytest bench/tests`` is outside tier-1)."""

    TRACED = ("setup", "send", "settle", "reconfigure")

    @pytest.mark.parametrize("backend", [SimDeployment, AsyncDeployment, TcpDeployment])
    def test_traced_operations_are_own_coroutine_functions(self, backend):
        for name in self.TRACED:
            assert inspect.iscoroutinefunction(backend.__dict__[name]), (backend, name)

    def test_tracer_installs_and_restores(self):
        from bench.tracing import Tracer, installed

        def own():
            backends = (SimDeployment, AsyncDeployment, TcpDeployment)
            return [backend.__dict__[name] for backend in backends for name in self.TRACED]

        before = own()
        with installed(Tracer()):
            during = own()
        assert all(new is not old for new, old in zip(during, before))
        assert all(new is old for new, old in zip(own(), before))
