"""The traced run: per-layer metrics of one workload (``--trace 1``).

Three parts share the run's time budget: the isolated layer drivers
(:mod:`bench.layers`), segments run under :mod:`bench.tracing`, and
untraced segments interleaved with them - the difference between the
two kinds is the tracing overhead.  End-to-end numbers are never taken
from here.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List

from bench.layers import run_layers
from bench.run import OUT_DIR, Report, SegmentLoop
from bench.segment import SegmentResult, run_segment
from bench.stats import percentile
from bench.tracing import LAYERS, ROOT_LAYER, Tracer, installed
from bench.workloads import Workload, make_script

#: Share of the run's time budget the isolated layer drivers may use.
LAYER_BUDGET_SHARE = 0.4


def _rate(results: List[SegmentResult]) -> float:
    rates = [r.bulk_deliveries / r.bulk_s for r in results if r.ok and r.bulk_s]
    return percentile(rates, 50.0) if rates else 0.0


def trace_metrics(
    traced: List[SegmentResult], tracers: List[Tracer], plain: List[SegmentResult]
) -> Dict[str, float]:
    """Fold the tracers' self times and boundary counters into metrics."""
    self_s: Counter = Counter()
    counts: Counter = Counter()
    rounds: List[float] = []
    wall = 0.0
    for tracer in tracers:
        self_s.update(tracer.self_s)
        counts.update(tracer.counts)
        rounds.extend(tracer.round_ms)
        wall += tracer.wall
    deliveries = sum(result.deliveries for result in traced)

    def per(numerator: str, denominator: float) -> float:
        return counts[numerator] / denominator if denominator else 0.0

    metrics = {f"{layer}.self_share": self_s[layer] / wall for layer in LAYERS}
    metrics["unattributed.self_share"] = self_s[ROOT_LAYER] / wall
    metrics["core.fastlane_hit_ratio"] = per("lane_hits", counts["lane_calls"])
    metrics["core.drain_actions_per_view_change"] = per(
        "reconf_drain_actions", counts["reconfigurations"]
    )
    metrics["links.wire_msgs_per_delivery"] = per("wire_msgs", deliveries)
    metrics["links.batch_fill"] = per("inbound_copies", counts["inbound_batches"])
    metrics["net.events_per_delivery"] = per("net_events", deliveries)
    metrics["runtime.frames_per_delivery"] = per("frames", deliveries)
    metrics["runtime.bytes_per_delivery"] = per("frame_bytes", deliveries)
    metrics["membership.notices_per_view_change"] = per(
        "reconf_notices", counts["reconfigurations"]
    )
    metrics["membership.round_ms"] = percentile(rounds, 50.0) if rounds else 0.0
    untraced_rate = _rate(plain)
    metrics["trace.overhead_share"] = (
        1.0 - _rate(traced) / untraced_rate if untraced_rate else 0.0
    )
    return metrics


def run_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    quick: bool = False,
) -> Report:
    report = Report(workload.name, seed)
    started = time.perf_counter()
    budget = 0.0 if quick else seconds * LAYER_BUDGET_SHARE
    report.metrics.update(run_layers(seed, budget_s=budget))
    report.calib_ms = report.metrics["host.calib_ms"]
    report.calib_spread = report.metrics["host.calib_spread"]

    script = make_script(workload, seed)
    loop = SegmentLoop(seconds - (time.perf_counter() - started), quick)
    traced: List[SegmentResult] = []
    tracers: List[Tracer] = []
    plain: List[SegmentResult] = []
    while loop.more() or not plain:
        if len(traced) <= len(plain):
            tracer = Tracer()
            with installed(tracer):
                traced.append(loop.run(lambda: run_segment(workload, script)))
            if tracers:
                tracer.spans = []  # only the first segment's spans are written out
            tracers.append(tracer)
        else:
            plain.append(loop.run(lambda: run_segment(workload, script)))
    report.segments = loop.count
    report.wall_s = time.perf_counter() - started

    report.absorb(traced + plain)
    report.metrics.update(trace_metrics(traced, tracers, plain))
    if report.metrics["scale.sync_vs_model_ratio"] > 2.0:
        report.correct = False
        report.notes.append("overlay sync volume exceeds twice the section-9 model")
    shares = sum(v for k, v in report.metrics.items() if k.endswith(".self_share"))
    if abs(shares - 1.0) > 1e-6:
        report.correct = False
        report.notes.append(f"layer shares sum to {shares:.6f}, not 1")
    OUT_DIR.mkdir(exist_ok=True)
    tracers[0].write(OUT_DIR / f"spans-{workload.name}-seed{seed}.csv")
    return report
