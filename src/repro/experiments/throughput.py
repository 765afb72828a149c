"""E6: steady-state within-view FIFO multicast.

With the group settled, every member multicasts ``messages`` payloads;
the experiment measures total deliveries, simulated completion time and
end-to-end delivery latency percentiles - the cost side of the service
that Sections 5.1's WV_RFIFO layer provides between reconfigurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.checking.events import DeliverEvent, SendEvent
from repro.experiments.registry import claim, close, experiment
from repro.experiments.tables import format_table
from repro.net import ConstantLatency, LatencyModel, SimWorld


@dataclass
class ThroughputResult:
    group_size: int
    messages_per_sender: int
    total_deliveries: int
    sim_duration: float
    deliveries_per_time_unit: float
    latency_p50: float
    latency_p99: float
    app_messages: int  # AppMsg copies
    view_messages: int  # ViewMsg copies: one marker per sender and view


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def measure_throughput(
    *,
    group_size: int = 8,
    messages_per_sender: int = 20,
    latency: Optional[LatencyModel] = None,
) -> ThroughputResult:
    latency = latency or ConstantLatency(1.0)
    world = SimWorld(latency=latency, round_duration=1.0)
    nodes = world.add_nodes([f"p{i:03d}" for i in range(group_size)])
    world.start()
    world.run()
    world.links.reset_counters()

    start = world.now()
    for round_no in range(messages_per_sender):
        for node in nodes:
            node.send((node.pid, round_no))
    world.run()
    duration = world.now() - start

    send_times: Dict[object, float] = {}
    latencies: List[float] = []
    deliveries = 0
    for event in world.trace:
        if isinstance(event, SendEvent):
            send_times[event.payload] = event.time
        elif isinstance(event, DeliverEvent) and event.time >= start:
            deliveries += 1
            sent_at = send_times.get(event.payload)
            if sent_at is not None:
                latencies.append(event.time - sent_at)
    totals = world.links.totals()
    return ThroughputResult(
        group_size=group_size,
        messages_per_sender=messages_per_sender,
        total_deliveries=deliveries,
        sim_duration=duration,
        deliveries_per_time_unit=deliveries / duration if duration else 0.0,
        latency_p50=_percentile(latencies, 0.50),
        latency_p99=_percentile(latencies, 0.99),
        app_messages=totals.get("AppMsg", 0),
        view_messages=totals.get("ViewMsg", 0),
    )


@experiment("E6", "Steady-state within-view multicast", "Section 5.1")
def run_e6() -> List[str]:
    """Between reconfigurations the service is a plain reliable FIFO
    multicast: every message costs n-1 wire messages and one network
    latency end-to-end, whatever the group size.  Each sender's view
    marker goes to its n-1 peers ahead of its first message."""
    rows = []
    for n in (4, 8, 16, 32):
        r = measure_throughput(group_size=n, messages_per_sender=10)
        sent = n * r.messages_per_sender
        claim(r.total_deliveries == sent * n, "everyone delivers everything", r)
        claim(close(r.latency_p50, 1.0), "one network hop end-to-end", r)
        claim(r.app_messages == sent * (n - 1), "n-1 AppMsg copies per multicast", r)
        claim(r.view_messages == n * (n - 1), "one marker per sender, to its n-1 peers", r)
        rows.append((n, r.total_deliveries, r.deliveries_per_time_unit,
                     r.latency_p50, r.latency_p99, r.app_messages, r.view_messages))
    return [format_table(
        ["n", "deliveries", "deliveries/time", "latency p50", "latency p99",
         "AppMsg copies", "ViewMsg copies"],
        rows,
        title="E6 steady-state multicast (10 messages/sender, constant latency 1.0)",
    )]
