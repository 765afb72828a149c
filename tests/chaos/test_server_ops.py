"""Server fault-domain chaos ops: state machine, plans, shrink, episodes."""

import pytest

from repro.chaos import ChaosPlan, ChaosRunner, sanitise_ops, shrink_plan
from repro.chaos.plan import ChaosOp, _ScheduleState
from repro.checking.forge import FORGERIES, as_mutator
from repro.experiments import chaos_sweep

PROCS = ("a", "b", "c", "d")


class TestScheduleState:
    def test_disabled_without_servers(self):
        state = _ScheduleState(PROCS)
        assert state.server_crash_candidates() == []
        assert state.server_recover_candidates() == []
        assert not state.can_server_partition()
        assert not state.enabled(ChaosOp("server_crash", server=0))

    def test_candidates_with_a_tier(self):
        state = _ScheduleState(PROCS, servers=3)
        assert state.server_crash_candidates() == [0, 1, 2]
        assert state.can_server_partition()

    def test_last_alive_server_never_crashes(self):
        state = _ScheduleState(PROCS, servers=2)
        state.apply(ChaosOp("server_crash", server=0))
        # One survivor left: nothing more may crash, only recovery.
        assert state.server_crash_candidates() == []
        assert state.server_recover_candidates() == [0]

    def test_client_partition_excludes_server_faults(self):
        state = _ScheduleState(PROCS, servers=3)
        state.apply(ChaosOp("partition", groups=(("a", "b"), ("c", "d"))))
        assert state.server_crash_candidates() == []
        assert not state.can_server_partition()

    def test_server_partition_excludes_client_churn(self):
        state = _ScheduleState(PROCS, servers=3)
        op = ChaosOp("server_partition", server_groups=((0,), (1, 2)))
        assert state.enabled(op)
        state.apply(op)
        # Runtime crash/reconfigure awaits views that cannot form across
        # a tier cut, so the schedule forbids them until the heal.
        assert not state.can_partition()
        assert state.crash_candidates() == []
        assert not state.can_reconfigure()
        assert state.server_crash_candidates() == []

    def test_server_partition_must_cover_every_server(self):
        state = _ScheduleState(PROCS, servers=3)
        partial = ChaosOp("server_partition", server_groups=((0,), (1,)))
        assert not state.enabled(partial)

    def test_heal_clears_both_partition_kinds(self):
        state = _ScheduleState(PROCS, servers=3)
        state.apply(ChaosOp("server_partition", server_groups=((0,), (1, 2))))
        state.apply(ChaosOp("heal"))
        assert not state.server_partitioned
        assert state.server_crash_candidates() == [0, 1, 2]

    def test_closing_ops_recover_crashed_servers(self):
        state = _ScheduleState(PROCS, servers=3)
        state.apply(ChaosOp("server_crash", server=1))
        closing = state.closing_ops()
        assert ChaosOp("server_recover", server=1) in closing
        assert closing[-1].kind == "settle"


class TestPlans:
    def test_generation_emits_server_ops(self):
        kinds = set()
        for seed in range(40):
            plan = ChaosPlan.generate(seed, servers=3)
            assert plan.servers == 3
            kinds.update(op.kind for op in plan.ops)
        assert "server_crash" in kinds
        assert "server_recover" in kinds
        assert "server_partition" in kinds

    def test_plain_plans_never_emit_them(self):
        for seed in range(40):
            assert all(
                not op.kind.startswith("server_")
                for op in ChaosPlan.generate(seed).ops
            )

    def test_serialisation_round_trip(self):
        plan = ChaosPlan.generate(5, servers=3)
        data = plan.to_dict()
        assert data["servers"] == 3
        assert ChaosPlan.from_dict(data) == plan

    def test_old_serialisations_still_load(self):
        # Pre-server-fault dicts carry none of the new keys and must
        # round-trip to a tierless plan unchanged.
        legacy = ChaosPlan.generate(5).to_dict()
        assert "servers" not in legacy
        for op in legacy["ops"]:
            assert "server" not in op
            assert "server_groups" not in op
        assert ChaosPlan.from_dict(legacy).servers == 0

    def test_sanitise_drops_server_ops_without_a_tier(self):
        ops = [ChaosOp("server_crash", server=0), ChaosOp("settle")]
        assert all(
            not op.kind.startswith("server_")
            for op in sanitise_ops(PROCS, ops)
        )
        kept = sanitise_ops(PROCS, ops, servers=3)
        assert any(op.kind == "server_crash" for op in kept)
        assert any(
            op.kind == "server_recover" and op.server == 0 for op in kept
        )

    def test_sanitise_is_a_fixpoint_with_server_ops(self):
        for seed in range(20):
            plan = ChaosPlan.generate(seed, servers=3)
            once = sanitise_ops(plan.processes, plan.ops, servers=3)
            assert sanitise_ops(plan.processes, once, servers=3) == once

    def test_with_processes_keeps_servers(self):
        plan = ChaosPlan.generate(5, processes=PROCS, servers=3)
        assert plan.with_processes(("a", "b", "c")).servers == 3

    def test_describe_names_the_tier(self):
        assert "servers=3" in ChaosPlan.generate(5, servers=3).describe()


class TestShrink:
    def test_shrinker_drops_an_idle_tier(self):
        # The forged violation is substrate-independent, so the shrinker
        # should strip the server ops and then the tier itself.
        runner = ChaosRunner("sim", mutate_trace=as_mutator(FORGERIES["VS-MONO"]))
        plan = ChaosPlan.generate(3, servers=3)
        result = shrink_plan(runner, plan, max_runs=60)
        assert result is not None
        assert result.code == "VS-MONO"
        assert all(
            not op.kind.startswith("server_") for op in result.plan.ops
        )
        assert result.plan.servers == 0


class TestEpisodes:
    @pytest.mark.parametrize("seed", [1, 4, 8])
    def test_sim_server_episode_passes(self, seed):
        plan = ChaosPlan.generate(seed, servers=3)
        episode = ChaosRunner("sim").run(plan)
        assert episode.ok, episode.summary()

    def test_tier_traffic_survives_a_server_crash(self):
        # A fault-free episode that actually crashes a server: the tier
        # protocol (view notices at least) must show up on the wire.
        plan = next(
            p
            for s in range(40)
            for p in [ChaosPlan.generate(s, servers=3, intensity=0.0)]
            if any(op.kind == "server_crash" for op in p.ops)
        )
        episode = ChaosRunner("sim").run(plan)
        assert episode.ok, episode.summary()
        assert episode.link_totals.get("ViewNotice", 0) > 0


@pytest.mark.slow
class TestServerSweeps:
    """Acceptance: 25 seeded episodes per substrate, zero findings."""

    @pytest.mark.parametrize("backend", ["sim", "async", "tcp"])
    def test_server_fault_sweep_is_green(self, backend):
        result = chaos_sweep(backend, episodes=25, servers=3)
        assert result.ok, "\n".join(result.failures)
        assert result.server_ops  # the sweep actually exercised the tier
