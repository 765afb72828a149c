"""Runner episodes, seed reproducibility, shrinking, and slow sweeps.

The fast tests run on the simulator only; the ``slow``-marked sweeps
exercise the asyncio and TCP runtimes and are picked up by the
chaos-smoke CI job (``pytest -m slow``).
"""

import json

import pytest

from repro.chaos import ChaosOp, ChaosPlan, ChaosRunner, FaultModel, shrink_plan
from repro.checking.forge import FORGERIES, as_mutator
from repro.experiments import chaos_sweep


class TestRunner:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ChaosRunner("carrier-pigeon")

    def test_sim_episode_passes_with_faults_injected(self):
        episode = ChaosRunner("sim").run(ChaosPlan.generate(3))
        assert episode.ok, episode.summary()
        assert episode.verdict.events > 0
        assert episode.counters["messages"] > 0
        # The generated fault model has nonzero rates for every class;
        # an episode's traffic is enough for each to actually fire.
        assert episode.counters["dropped"] > 0
        assert episode.counters["duplicated"] > 0
        # Every duplicate that reaches a live receiver is suppressed
        # there; copies aimed at crashed or cut destinations never
        # arrive, so suppression can undercount but never overcount.
        assert 0 < episode.counters["suppressed"] <= episode.counters["duplicated"]

    def test_summary_mentions_seed_and_status(self):
        episode = ChaosRunner("sim").run(ChaosPlan.generate(4))
        assert f"seed={episode.plan.seed}" in episode.summary()
        assert episode.summary().endswith("ok")


class TestSeedReproducibility:
    """Satellite: the same seed must produce the identical trace."""

    @pytest.mark.parametrize("seed", [13, 29])
    def test_same_plan_twice_gives_identical_trace(self, seed):
        runner = ChaosRunner("sim")
        plan = ChaosPlan.generate(seed)
        first = runner.run(plan)
        second = runner.run(plan)
        assert first.ok and second.ok
        assert list(first.trace) == list(second.trace)
        assert first.counters == second.counters

    def test_json_round_trip_replays_identically(self):
        runner = ChaosRunner("sim")
        plan = ChaosPlan.generate(8)
        replayed = ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert list(runner.run(plan).trace) == list(runner.run(replayed).trace)


class TestShrinking:
    def test_passing_plan_is_not_shrunk(self):
        assert shrink_plan(ChaosRunner("sim"), ChaosPlan.generate(3)) is None

    def test_known_bad_mutation_is_caught_and_shrunk(self):
        """The self-test loop: forge a violation, catch it, minimise it."""
        runner = ChaosRunner("sim", mutate_trace=as_mutator(FORGERIES["VS-MONO"]))
        original = ChaosPlan.generate(7)
        result = shrink_plan(runner, original, max_runs=40)
        assert result is not None, "checkers missed the forged violation"
        assert "Local Monotonicity" in result.violation.message
        # The forged violation survives any schedule, so shrinking must
        # reach the floor: minimal ops, 2 processes, no message faults.
        assert len(result.plan.ops) < len(original.ops)
        assert len(result.plan.processes) == 2
        assert result.plan.faults.active_rates() == {}
        # The printed JSON replays to the same violation.
        replayed = ChaosPlan.from_dict(json.loads(json.dumps(result.plan.to_dict())))
        episode = runner.run(replayed)
        assert not episode.ok
        assert episode.verdict.primary == result.violation


@pytest.fixture
def stalled_settle(monkeypatch):
    """Make every simulator episode stall at its first ``settle`` op."""
    from repro.deploy import SimDeployment
    from repro.errors import SettleTimeoutError

    async def settle(self):
        raise SettleTimeoutError("forced stall")

    monkeypatch.setattr(SimDeployment, "settle", settle)


class TestStall:
    """A stall is an ordinary finding: one coded RUN-STALL violation."""

    def test_stalled_episode_holds_a_run_stall_verdict(self, stalled_settle):
        episode = ChaosRunner("sim").run(ChaosPlan.generate(3))
        assert not episode.ok and episode.trace is None
        primary = episode.verdict.primary
        assert primary.code == episode.code == "RUN-STALL"
        assert primary.witness_index is None
        assert "forced stall" in primary.message
        assert "pending fault schedule" in primary.message
        assert (episode.verdict.events, episode.verdict.rules) == (0, ())
        assert "VIOLATION: RUN-STALL: settle timeout" in episode.summary()

    def test_verdict_cli_prints_the_episode_verdict(self, stalled_settle, capsys):
        from repro.__main__ import main

        assert main(["verdict", "--seed", "3"]) == 1
        printed = json.loads(capsys.readouterr().out)
        episode = ChaosRunner("sim").run(ChaosPlan.generate(3))
        assert printed["verdict"] == episode.verdict.to_dict()
        assert printed["verdict"]["violations"][0]["code"] == "RUN-STALL"

    def test_stall_shrinks_by_code_alone(self, stalled_settle):
        result = shrink_plan(ChaosRunner("sim"), ChaosPlan.generate(3), max_runs=6)
        assert result is not None
        assert result.code == "RUN-STALL" and result.witness_index is None
        assert json.loads(result.finding_json())["witness_index"] is None


class TestFrameError:
    """A frame the socket codec refused is a finding: one RUN-FRAME."""

    def test_an_oversized_payload_on_tcp_holds_a_run_frame_verdict(self, monkeypatch):
        from repro import wire

        monkeypatch.setattr(wire, "MAX_FRAME", 1000)
        plan = ChaosPlan(
            seed=0,
            processes=("a", "b"),
            faults=FaultModel(),
            ops=(ChaosOp("send", pid="a", payload="x" * 5000),),
        )
        episode = ChaosRunner("tcp").run(plan)
        assert not episode.ok and episode.trace is None
        primary = episode.verdict.primary
        assert primary.code == episode.code == "RUN-FRAME"
        assert primary.witness_index is None
        assert primary.message == "frame errors: oversized: 1"

    def test_a_frame_error_outranks_the_stall_it_caused(self, monkeypatch):
        from repro.deploy import SimDeployment
        from repro.errors import SettleTimeoutError

        async def settle(self):
            self.links.frame_error("truncated")
            raise SettleTimeoutError("copies lost with the connection")

        monkeypatch.setattr(SimDeployment, "settle", settle)
        episode = ChaosRunner("sim").run(ChaosPlan.generate(3))
        assert episode.code == "RUN-FRAME"
        assert episode.verdict.primary.message == "frame errors: truncated: 1"


@pytest.mark.slow
class TestSweeps:
    """Multi-seed sweeps per substrate - the chaos-smoke CI battery."""

    def test_sim_sweep_clean(self):
        result = chaos_sweep("sim", episodes=25)
        assert result.ok, "\n".join(result.failures)

    def test_async_sweep_clean(self):
        result = chaos_sweep("async", episodes=10, seed_base=100)
        assert result.ok, "\n".join(result.failures)

    def test_tcp_sweep_clean(self):
        result = chaos_sweep("tcp", episodes=10, seed_base=200)
        assert result.ok, "\n".join(result.failures)
