"""BENCHMARK.json and the code must name the same things."""

import re

from bench.layers import DRIVERS
from bench.run import load_spec
from bench.segment import SegmentResult
from bench.traced import trace_metrics
from bench.tracing import Tracer
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_workloads_match():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_names_match_what_a_segment_measures():
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    result = SegmentResult(WORKLOADS["steady.sim"])
    result.bulk_s = result.audit_s = 1.0
    result.ping_ms = [1.0] * 200
    result.outage_ms = [1.0]
    assert set(names) == set(result.values()) | {"peak_rss_mb"}
    assert "setup_s" in names
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["better"] in ("lower", "higher")


def test_per_layer_names_match_the_drivers_and_the_tracer():
    spec = load_spec()
    names = [m["name"] for m in spec["per_layer"]]
    tracer = Tracer()
    tracer.wall = 1.0
    traced = set(trace_metrics([], [tracer], []))
    expected = set(DRIVERS) | {"host.calib_ms", "host.calib_spread"} | traced
    assert set(names) == expected
    assert len(names) == len(set(names)) <= 128


def test_every_name_and_unit_is_well_formed():
    spec = load_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    for entry in spec["workloads"] + metrics:
        assert NAME.match(entry["name"]), entry["name"]
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
