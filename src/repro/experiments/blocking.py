"""E7: the application blocking window (Section 5.3).

Self Delivery plus Virtual Synchrony require blocking the application
from sending during a view change ([19], cited in Section 5.3).  The cost
of that guarantee is the *blocking window*: the time between the block
request (right after the first start_change) and the view delivery that
unblocks.  The designs trade *where* the window sits: the paper's
algorithm blocks from the start_change to the view (the window spans the
membership round, but total reconfiguration is shortest); the baselines
block only after the membership view, for the duration of their extra
rounds (shorter window, longer total outage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.checking.events import BlockEvent, ViewEvent
from repro.core import GcsEndpoint
from repro.experiments.reconfig import ALGORITHMS, CLAIMED_EXTRA_ROUNDS, measure_reconfiguration
from repro.experiments.registry import claim, close, experiment
from repro.experiments.scenario import crash_last_member
from repro.experiments.tables import format_table
from repro.net import ConstantLatency, LatencyModel


@dataclass
class BlockingResult:
    algorithm: str
    group_size: int
    mean_blocking_window: float
    max_blocking_window: float


def measure_blocking_window(
    endpoint_cls: Type[GcsEndpoint] = GcsEndpoint,
    *,
    group_size: int = 6,
    round_duration: float = 3.0,
    latency: Optional[LatencyModel] = None,
    algorithm_name: str = "",
) -> BlockingResult:
    run = crash_last_member(
        [f"p{i}" for i in range(group_size)],
        latency=latency or ConstantLatency(1.0),
        round_duration=round_duration,
        endpoint_cls=endpoint_cls,
        gc_views=False,
    )
    blocked_at: Dict[str, float] = {}
    windows: List[float] = []
    for event in run.world.trace:
        if event.time < run.crashed_at:
            continue
        if isinstance(event, BlockEvent):
            blocked_at.setdefault(event.proc, event.time)
        elif isinstance(event, ViewEvent) and event.proc in blocked_at:
            windows.append(event.time - blocked_at.pop(event.proc))
    return BlockingResult(
        algorithm=algorithm_name or endpoint_cls.__name__,
        group_size=group_size,
        mean_blocking_window=sum(windows) / len(windows) if windows else 0.0,
        max_blocking_window=max(windows, default=0.0),
    )


@experiment("E7", "The blocking window", "Section 5.3")
def run_e7() -> List[str]:
    round_duration = 3.0
    rows, totals = [], {}
    for name, endpoint_cls in ALGORITHMS.items():
        # The paper's window spans the membership round; a baseline blocks
        # for exactly the rounds it runs after the membership view.
        claimed = round_duration if "paper" in name else CLAIMED_EXTRA_ROUNDS[name]
        blocking = measure_blocking_window(
            endpoint_cls, round_duration=round_duration, algorithm_name=name
        )
        total = measure_reconfiguration(
            endpoint_cls, group_size=6, round_duration=round_duration, algorithm_name=name
        )
        claim(close(blocking.mean_blocking_window, claimed, 0.01), "blocking window", blocking)
        totals[name] = total.gcs_latency
        rows.append((name, blocking.mean_blocking_window, claimed, total.gcs_latency))
    claim(totals["gcs-1round (paper)"] == min(totals.values()),
          "the paper's algorithm has the shortest total outage", totals)
    return [format_table(
        ["algorithm", "blocking window", "claimed", "total reconfig latency"],
        rows,
        title=f"E7 blocking window vs total outage (membership round = {round_duration})",
    )]
