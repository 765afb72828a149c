"""Tests for the experiments harness.

``TestRegistry`` runs every registered experiment at full size - its
``run()`` raises when a measured row misses the claimed shape - and
holds EXPERIMENTS.md to the registry.  The remaining classes pin the
``measure_*`` API and the shapes at miniature scale.
"""

import re
from pathlib import Path

import pytest

from repro.baselines import SequentialVsEndpoint, TwoRoundVsEndpoint
from repro.core import GcsEndpoint, MinCopiesStrategy, SimpleStrategy
from repro.experiments import (
    ALGORITHMS,
    REGISTRY,
    ClaimMissed,
    experiment_ids,
    format_table,
    measure_blocking_window,
    measure_compact_syncs,
    measure_crash_recovery,
    measure_forwarding,
    measure_obsolete_views,
    measure_ordering_overhead,
    matrix_agrees,
    measure_reconfiguration,
    measure_substrate,
    measure_throughput,
    measure_two_tier,
    reconfiguration_sweep,
    substrate_matrix,
)


EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: Sections whose tables come from another command than ``experiments``;
#: the section must name that command.
DRIVEN_BY_CLI = {
    "E9": ["python3 -m bench --trace 1"],
    "E16": ["python -m repro chaos"],
    "E20": ["python -m repro chaos", "python -m repro soak"],
}


class TestRegistry:
    @pytest.mark.parametrize("id", experiment_ids())
    def test_claims_hold(self, id):
        tables = REGISTRY[id].run()  # raises ClaimMissed on a missed claim
        assert tables and all(table.startswith(id) for table in tables)

    def test_ids_are_unique_and_well_formed(self):
        ids = experiment_ids()
        assert len(ids) == len(set(ids)) == len(REGISTRY)
        assert all(re.fullmatch(r"E[1-9][0-9]*", id) for id in ids)
        assert all(entry.id == id for id, entry in REGISTRY.items())

    def test_double_registration_is_rejected(self):
        from repro.experiments.registry import experiment

        with pytest.raises(ValueError, match="registered twice"):
            experiment("E1", "impostor", "nowhere")(lambda: [])

    def test_every_documented_experiment_has_a_producer(self):
        sections = re.split(r"^## ", EXPERIMENTS_MD.read_text(), flags=re.MULTILINE)[1:]
        documented = {}
        for section in sections:
            heading = re.match(r"(E[0-9]+) ", section)
            if heading:
                documented[heading.group(1)] = section
        assert set(REGISTRY) <= set(documented)  # no undocumented experiment
        for id, section in documented.items():
            if id in REGISTRY:
                assert f"`python -m repro experiments {id}`" in section, id
            else:
                assert id in DRIVEN_BY_CLI, f"{id} has no registry entry and no CLI"
                for command in DRIVEN_BY_CLI[id]:
                    assert command in section, (id, command)

    def test_missed_claim_raises(self, monkeypatch):
        from repro.experiments import servers

        honest = servers.measure_server_tier

        def one_proposal_too_many(**kwargs):
            result = honest(**kwargs)
            result.proposal_messages += 1
            return result

        monkeypatch.setattr(servers, "measure_server_tier", one_proposal_too_many)
        with pytest.raises(ClaimMissed, match="quadratic in the server tier"):
            REGISTRY["E14"].run()


class TestReconfig:
    def test_registry_covers_all_three_algorithms(self):
        assert set(ALGORITHMS.values()) == {
            GcsEndpoint, SequentialVsEndpoint, TwoRoundVsEndpoint,
        }

    def test_extra_rounds_shape(self):
        extras = {
            name: measure_reconfiguration(cls, group_size=4, algorithm_name=name).extra_rounds
            for name, cls in ALGORITHMS.items()
        }
        assert extras["gcs-1round (paper)"] == pytest.approx(0.0)
        assert extras["sequential-vs"] == pytest.approx(1.0)
        assert extras["two-round-vs"] == pytest.approx(2.0)

    def test_sweep_produces_one_row_per_algorithm_and_size(self):
        rows = reconfiguration_sweep([3, 4])
        assert len(rows) == 2 * len(ALGORITHMS)

    def test_safety_check_option(self):
        result = measure_reconfiguration(GcsEndpoint, group_size=3, check=True)
        assert result.membership_latency > 0


class TestForwarding:
    def test_copies_scale_with_holders_for_simple(self):
        result = measure_forwarding(SimpleStrategy(), group_size=5, backlog=2, holders=2)
        assert result.copies_per_missing == pytest.approx(2.0)

    def test_min_copies_always_one(self):
        result = measure_forwarding(MinCopiesStrategy(), group_size=5, backlog=2, holders=2)
        assert result.copies_per_missing == pytest.approx(1.0)

    def test_holders_bound_validated(self):
        with pytest.raises(ValueError):
            measure_forwarding(SimpleStrategy(), group_size=3, holders=2)


class TestObsolete:
    def test_modes(self):
        revise = measure_obsolete_views("revise", group_size=3, churn=2)
        serialize = measure_obsolete_views("serialize", group_size=3, churn=2)
        assert revise.app_views_per_process == pytest.approx(1.0)
        assert serialize.app_views_per_process == pytest.approx(2.0)
        assert revise.total_time < serialize.total_time

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            measure_obsolete_views("yolo")


class TestOthers:
    def test_throughput_accounting(self):
        result = measure_throughput(group_size=3, messages_per_sender=2)
        assert result.total_deliveries == 3 * 3 * 2
        assert result.app_messages == 3 * 2 * 2
        assert result.view_messages == 3 * 2

    def test_blocking_window_ordering(self):
        ours = measure_blocking_window(GcsEndpoint, group_size=3).mean_blocking_window
        seq = measure_blocking_window(SequentialVsEndpoint, group_size=3).mean_blocking_window
        assert ours > seq  # the trade-off E7 documents

    def test_crash_recovery_flags(self):
        result = measure_crash_recovery(group_size=3)
        assert result.recovered_in_final_view
        assert result.post_recovery_delivery_ok
        assert result.monotone_view_ids

    def test_two_tier_saves_messages(self):
        flat = measure_two_tier(group_size=8, leaders=0)
        tiered = measure_two_tier(group_size=8, leaders=2)
        assert tiered.sync_messages < flat.sync_messages

    def test_compact_syncs_save_volume(self):
        plain = measure_compact_syncs(group_size=6, compact=False)
        compact = measure_compact_syncs(group_size=6, compact=True)
        assert compact.sync_volume < plain.sync_volume
        assert compact.sync_messages == plain.sync_messages

    def test_ordering_layers(self):
        fifo = measure_ordering_overhead("fifo", group_size=3, messages_per_sender=2)
        total = measure_ordering_overhead("total", group_size=3, messages_per_sender=2)
        assert total.mean_delivery_latency > fifo.mean_delivery_latency
        assert total.agreed_order

    def test_ordering_layer_validated(self):
        with pytest.raises(ValueError):
            measure_ordering_overhead("alphabetical")


class TestFormatTable:
    def test_alignment_and_title(self):
        table = format_table(["a", "bb"], [(1, 2.5), ("xx", 3)], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert "2.50" in table

    def test_empty_rows(self):
        table = format_table(["h"], [])
        assert "h" in table


class TestSubstrates:
    def test_single_substrate_counts(self):
        row = measure_substrate("sim", nodes=2, rounds=1)
        assert row.sends == 2
        assert row.deliveries == 4  # 2 sends x 2 members
        assert row.checked is True

    def test_matrix_covers_all_substrates_and_agrees(self):
        rows = substrate_matrix(nodes=2, rounds=1)
        assert [r.substrate for r in rows] == ["sim", "async", "tcp"]
        assert matrix_agrees(rows)

    def test_unknown_substrate_propagates(self):
        with pytest.raises(ValueError):
            measure_substrate("avian")


class TestServerChaos:
    def test_miniature_e20_sweep(self):
        from repro.experiments import measure_server_chaos

        result = measure_server_chaos("sim", episodes=6, servers=3)
        assert result.sweep.violations == 0
        assert sum(result.server_ops.values()) > 0
        assert result.ok

    def test_por_skipped_server_ops_are_not_evidence(self, monkeypatch):
        """A sweep whose only server-op plan is POR-skipped ran no server
        op: the evidence column must say zero, not count the plan."""
        import importlib

        from repro.chaos import ChaosOp, ChaosPlan
        from repro.experiments import measure_server_chaos

        calm = ChaosPlan.generate(1, intensity=0.0).with_ops((ChaosOp(kind="settle"),))
        stormy = calm.with_ops((ChaosOp(kind="server_crash"), ChaosOp(kind="settle")))
        sweep_mod = importlib.import_module("repro.experiments.chaos_sweep")

        class _StubPlans:
            @staticmethod
            def generate(seed, **_options):
                return stormy if seed == 1 else calm

        monkeypatch.setattr(sweep_mod, "ChaosPlan", _StubPlans)
        # Make the two plans POR-equivalent so the server-op plan is skipped.
        monkeypatch.setattr(sweep_mod, "schedule_key", lambda plan: "one-class")
        result = measure_server_chaos("sim", episodes=2, seed_base=0, servers=3)
        assert result.sweep.por_skipped == 1
        assert result.server_ops == {}
        assert result.sweep.op_kinds == {"settle": 1}
        assert not result.ok

    def test_sweep_without_server_ops_is_not_ok(self):
        from repro.experiments import measure_server_chaos

        # servers=0 keeps the tier out of the schedules entirely: the
        # sweep may be green, but it proves nothing about the tier.
        result = measure_server_chaos("sim", episodes=2, servers=0)
        assert result.server_ops == {}
        assert not result.ok

    def test_miniature_e20_soak(self):
        from repro.experiments import measure_server_soak

        report = measure_server_soak(
            "sim", seed=5, duration=300.0, audit_every=25
        )
        assert report.ok, report.summary()
        assert report.elapsed >= 300.0
        assert report.max_resident <= report.resident_limit
