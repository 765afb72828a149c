"""Plan generation: validity, determinism, serialisation, sanitising."""

import random
from itertools import islice

import pytest

from repro.chaos import ChaosOp, ChaosPlan, sanitise_ops


def assert_closed(state) -> None:
    """The stable full view: no partition, no crash, everyone configured."""
    assert not state.partitioned and not state.server_partitioned
    assert not state.crashed and not state.crashed_servers
    assert state.configured == state.full


def assert_executable(plan: ChaosPlan) -> None:
    """Every op must be enabled at its position in the plan's own schedule
    (its overlay leaders and membership servers included)."""
    state = plan.schedule_state()
    for op in plan.ops:
        assert state.enabled(op), f"disabled op in schedule: {op.describe()}"
        state.apply(op)
    # The closing suffix must have restored the stable full view.
    assert_closed(state)
    assert plan.ops[-1].kind == "settle"


# The plain ids stay the bare seed; the option sets add their own.
OPTION_SETS = {"": {}, "servers": {"servers": 3}, "leaders": {"overlay_leaders": 2}}


class TestGeneration:
    @pytest.mark.parametrize(
        "seed, options",
        [
            pytest.param(seed, options, id=f"{name}-{seed}" if name else str(seed))
            for name, options in OPTION_SETS.items()
            for seed in range(30)
        ],
    )
    def test_generated_plans_are_executable(self, seed, options):
        assert_executable(ChaosPlan.generate(seed, **options))

    @pytest.mark.parametrize("seed", [7, 42])
    def test_soak_stream_is_enabled_op_by_op(self, seed):
        # A soak's stream (as ChaosRunner.soak draws it), replayed on a
        # mirror state: each op is enabled before it is applied.
        plan = ChaosPlan.generate(seed, processes=("a", "b", "c", "d"), length=0, servers=3)
        mirror = plan.schedule_state()
        for op in islice(plan.schedule_state().random_ops(random.Random(seed)), 300):
            assert mirror.enabled(op), f"disabled op in stream: {op.describe()}"
            mirror.apply(op)
        for op in mirror.closing_ops():
            assert mirror.enabled(op), f"disabled closing op: {op.describe()}"
            mirror.apply(op)
        assert_closed(mirror)

    def test_same_seed_same_plan(self):
        assert ChaosPlan.generate(17) == ChaosPlan.generate(17)

    def test_different_seeds_differ(self):
        plans = {ChaosPlan.generate(s).describe() for s in range(10)}
        assert len(plans) == 10

    def test_intensity_zero_disables_faults(self):
        plan = ChaosPlan.generate(5, intensity=0.0)
        assert plan.faults.active_rates() == {}
        assert plan.faults.describe() == "no faults"

    def test_explicit_processes_and_length(self):
        plan = ChaosPlan.generate(1, processes=["p", "q", "r"], length=4)
        assert plan.processes == ("p", "q", "r")
        assert_executable(plan)

    def test_too_few_processes_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ChaosPlan.generate(1, processes=["solo"])


class TestSerialisation:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_round_trip(self, seed):
        plan = ChaosPlan.generate(seed)
        assert ChaosPlan.from_dict(plan.to_dict()) == plan

    def test_round_trip_survives_json(self):
        import json

        plan = ChaosPlan.generate(3)
        restored = ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored == plan


class TestSanitise:
    def test_disabled_ops_are_dropped(self):
        procs = ("a", "b", "c")
        ops = [
            ChaosOp("heal"),  # not partitioned: disabled
            ChaosOp("recover", pid="a"),  # nothing crashed: disabled
            ChaosOp("send", pid="z", payload="ghost"),  # unknown sender
            ChaosOp("send", pid="a", payload="real"),
        ]
        kept = sanitise_ops(procs, ops)
        kinds = [op.kind for op in kept]
        assert kinds == ["send", "settle"]
        assert kept[0].payload == "real"

    def test_open_schedule_gets_closed(self):
        procs = ("a", "b", "c")
        ops = [
            ChaosOp("partition", groups=(("a",), ("b", "c"))),
            ChaosOp("send", pid="a", payload="island"),
        ]
        kept = sanitise_ops(procs, ops)
        assert [op.kind for op in kept] == ["partition", "send", "heal", "settle"]

    def test_sanitise_is_a_fixpoint(self):
        plan = ChaosPlan.generate(11)
        assert sanitise_ops(plan.processes, plan.ops) == plan.ops

    def test_with_processes_prunes_ops(self):
        plan = ChaosPlan.generate(2, processes=["a", "b", "c", "d"])
        smaller = plan.with_processes(["a", "b", "c"])
        assert smaller.processes == ("a", "b", "c")
        assert all(op.pid != "d" for op in smaller.ops)
        assert_executable(smaller)
        with pytest.raises(ValueError, match="below 2"):
            plan.with_processes(["a"])
