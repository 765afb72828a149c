"""Soak mode: open-ended chaos streams with periodic audits."""

import json

import pytest

from repro.chaos import ChaosRunner, SoakReport, default_resident_limit
from repro.checking import VerdictMonitor


class TestParameters:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ChaosRunner("carrier-pigeon")

    def test_invalid_knobs_rejected(self):
        runner = ChaosRunner("sim")
        with pytest.raises(ValueError, match="duration"):
            runner.soak(1, duration=0.0)
        with pytest.raises(ValueError, match="audit_every"):
            runner.soak(1, audit_every=0)

    def test_resident_limit_is_length_independent(self):
        # The whole point of the bound: it depends on the audit window,
        # never on how long the soak runs.
        assert default_resident_limit(4, 50) == default_resident_limit(4, 50)
        assert default_resident_limit(4, 100) > default_resident_limit(4, 50)
        assert default_resident_limit(8, 50) > default_resident_limit(4, 50)


class TestShortSoaks:
    def test_bounded_sim_soak_is_green(self):
        report = ChaosRunner("sim").soak(
            11, duration=1e9, max_ops=40, audit_every=10, servers=3
        )
        assert report.ok, report.summary()
        assert report.ops >= 40  # closing suffix lands on top of max_ops
        assert report.audits >= 4
        assert report.events > 0
        assert report.verdict is not None and report.verdict.ok
        assert report.max_resident <= report.resident_limit

    def test_report_round_trips_to_json(self):
        report = ChaosRunner("sim").soak(
            3, duration=1e9, max_ops=15, audit_every=5, servers=2
        )
        data = json.loads(json.dumps(report.to_dict()))
        assert data["backend"] == "sim"
        assert data["seed"] == 3
        assert data["ok"] is True
        assert data["code"] is None and data["violation"] is None
        assert data["verdict"]["status"] == "PASS"
        assert data["counters"]["messages"] > 0
        assert "soak seed=3" in report.summary()

    def test_residency_violation_is_reported_not_raised(self):
        # An impossible limit trips the memory assertion at the first
        # clean audit - the report carries the finding, nothing raises.
        report = ChaosRunner("sim").soak(
            11, duration=1e9, max_ops=40, audit_every=10, servers=0,
            resident_limit=-1,
        )
        assert not report.ok
        assert report.code == "RUN-RESIDENCY"
        assert "memory residency" in report.verdict.primary.message

    def test_residency_breach_is_coded_in_the_artifact(self):
        report = ChaosRunner("sim").soak(
            11, duration=1e9, max_ops=40, audit_every=10, servers=0,
            resident_limit=0,
        )
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is False
        assert data["code"] == "RUN-RESIDENCY"
        assert data["violation"].startswith("RUN-RESIDENCY: memory residency")
        (violation,) = data["verdict"]["violations"]
        assert violation["code"] == "RUN-RESIDENCY"
        assert violation["witness_index"] is None
        assert "RUN-RESIDENCY" in report.summary()
        # every key the artifact had before the code was added
        assert set(data) >= {
            "backend", "seed", "servers", "duration", "elapsed", "ops", "audits",
            "events", "max_resident", "resident_limit", "counters", "ok",
            "violation", "verdict",
        }

    def test_audits_feed_every_event_exactly_once(self, monkeypatch):
        # The soak's one monitor reads each audit's new events only: the
        # [cursor before, cursor after) intervals tile [0, events).
        intervals = []
        advance = VerdictMonitor.advance

        def recording(monitor, trace):
            before = monitor.cursor
            advance(monitor, trace)
            intervals.append((before, monitor.cursor))
            return monitor

        monkeypatch.setattr(VerdictMonitor, "advance", recording)
        report = ChaosRunner("sim").soak(
            11, duration=1e9, max_ops=40, audit_every=10, servers=3
        )
        assert report.ok, report.summary()
        assert len(intervals) == report.audits >= 4
        starts = [start for start, _end in intervals]
        ends = [end for _start, end in intervals]
        assert starts == [0] + ends[:-1]
        assert ends[-1] == report.events > 0

    def test_runtimes_observe_residency_without_enforcing(self):
        report = SoakReport(backend="async", seed=1, servers=0, duration=1.0)
        assert report.resident_limit is None  # default: observe-only
        assert report.ok


@pytest.mark.slow
class TestLongSoaks:
    def test_one_simulated_hour_with_server_faults(self):
        # Acceptance: >= 1 simulated hour under server churn, green
        # verdicts throughout and bounded endpoint memory at every
        # clean audit point.
        report = ChaosRunner("sim").soak(42, duration=3600.0, servers=3)
        assert report.ok, report.summary()
        assert report.elapsed >= 3600.0
        assert report.audits >= 2
        assert report.max_resident <= report.resident_limit

    @pytest.mark.parametrize("backend", ["async", "tcp"])
    def test_runtime_soak_is_green(self, backend):
        report = ChaosRunner(backend).soak(7, duration=5.0, servers=3, audit_every=20)
        assert report.ok, report.summary()
        assert report.elapsed >= 5.0
        assert report.audits >= 1
