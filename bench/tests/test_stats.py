"""The estimator rules: fast quartile, and tails only where the sample allows."""

import statistics

import pytest

from bench.run import Report, load_spec, summarise
from bench.segment import SegmentResult
from bench.stats import (
    REFERENCE_CALIB_MS,
    Canary,
    fast_quartile,
    percentile,
    samples_beyond,
    spread,
    tail_percentile,
)
from bench.workloads import WORKLOADS


def test_percentile_interpolates_inclusively():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 25) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_fast_quartile_leans_toward_better():
    values = [float(v) for v in range(1, 10)]  # 1..9: p25 = 3, p75 = 7
    assert fast_quartile(values, "lower") == 3.0
    assert fast_quartile(values, "higher") == 7.0
    assert fast_quartile([4.2], "lower") == 4.2
    with pytest.raises(ValueError):
        fast_quartile(values, "sideways")


def test_fast_quartile_ignores_a_slow_half():
    clean = [10.0, 10.1, 10.2, 10.3]
    noisy = clean + [15.0, 19.0, 30.0, 80.0]
    assert fast_quartile(noisy, "lower") < 10.4
    assert statistics.median(noisy) > 12.0


def test_a_tail_needs_ten_samples_beyond_it():
    assert samples_beyond(200, 90) == 20
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(200, 99) == 2
    samples = [float(i) for i in range(200)]
    assert tail_percentile(samples, 90) == percentile(samples, 90)
    with pytest.raises(ValueError):
        tail_percentile(samples, 99)
    with pytest.raises(ValueError):
        tail_percentile(samples[:99], 90)


def test_spread_is_the_interquartile_share_of_the_median():
    values = [9.0, 10.0, 11.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((third - first) / statistics.median(values))
    assert spread([3.0]) == 0.0


def test_host_factor_describes_the_quiet_part_of_the_run():
    canary = Canary()
    canary.samples = [REFERENCE_CALIB_MS] * 6 + [2 * REFERENCE_CALIB_MS] * 4
    assert canary.host_factor == pytest.approx(1.0)  # half in a slow window
    canary.samples = [2 * REFERENCE_CALIB_MS] * 10
    assert canary.host_factor == pytest.approx(2.0)  # wholly inside one


def test_timings_are_corrected_and_counts_are_not():
    result = SegmentResult(WORKLOADS["steady.sim"])
    result.setup_s, result.bulk_s, result.audit_s = 0.02, 1.0, 0.5
    result.bulk_deliveries, result.events, result.sync_msgs = 1000, 500, 450
    result.ping_ms = [0.4] * 200
    result.outage_ms = [10.0, 10.0]
    result.verdict_status = "PASS"
    report = Report("steady.sim", seed=1, host_factor=2.0)  # host twice as slow
    summarise(report, [result], load_spec()["end_to_end"])
    assert report.correct
    assert report.metrics["deliveries_per_s"] == pytest.approx(2000.0)
    assert report.raw["deliveries_per_s"] == pytest.approx(1000.0)
    assert report.metrics["mcast_latency_p50_ms"] == pytest.approx(0.2)
    assert report.metrics["setup_s"] == pytest.approx(0.01)
    assert report.metrics["audit_events_per_s"] == pytest.approx(2000.0)
    assert report.metrics["sync_msgs_per_view_change"] == 225.0
    assert "peak_rss_mb" not in report.raw
