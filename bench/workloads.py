"""The four workloads: names, shapes, and why each exists.

Names are final - later issues cite them.  A workload is one
parametrisation of the single segment script in :mod:`bench.segment`;
the numbers below are the only thing that differs between workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.scale import balanced_groups


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    substrate: str  # "sim" | "async" | "tcp"
    n: int  # group size
    burst: int  # payloads per member per bulk round
    bulk: int  # bulk rounds per segment
    pings: int  # one-at-a-time multicasts per segment
    reconf: int  # reconfigurations per segment (leave/join alternating)
    load: int  # payloads per member before each reconfiguration
    inflight: bool  # reconfigure with that load still in flight?
    leaders: int = 0  # > 0 installs the section-9 overlay with L leaders
    deploy_kwargs: Dict[str, Any] = field(default_factory=dict)

    def pids(self) -> List[str]:
        return [f"p{i:02d}" for i in range(self.n)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady.sim",
            why=(
                "stable 16-member view on the simulator: FastLane replay, batched "
                "framing, SimNetwork/EventScheduler; no kernel, no membership tier"
            ),
            substrate="sim",
            n=16, burst=8, bulk=24, pings=200, reconf=10, load=0, inflight=False,
        ),
        Workload(
            name="steady.tcp",
            why=(
                "stable 8-member view over loopback TCP with one membership server: "
                "framing, pickle, asyncio and the kernel dominate; the wire-codec target"
            ),
            substrate="tcp",
            n=8, burst=8, bulk=24, pings=200, reconf=10, load=0, inflight=False,
            deploy_kwargs={"servers": 1},
        ),
        Workload(
            name="churn.async",
            why=(
                "12 members on the asyncio hub, two membership servers, every view "
                "change with traffic in flight: general automaton path, FastLane "
                "invalidation, sync and forwarding, the real membership round"
            ),
            substrate="async",
            n=12, burst=4, bulk=4, pings=120, reconf=24, load=2, inflight=True,
            deploy_kwargs={"servers": 2},
        ),
        Workload(
            name="scale.sim",
            why=(
                "64 members on the simulator under the section-9 two-tier overlay "
                "(L=8), oracle membership: sync aggregation and O(n) engine bookkeeping"
            ),
            substrate="sim",
            n=64, burst=1, bulk=8, pings=640, reconf=2, load=1, inflight=False,
            leaders=8,
            deploy_kwargs={"round_duration": 3.0},
        ),
    )
}

#: --quick: this many segments per workload, whatever --seconds says.
QUICK_SEGMENTS = 2


@dataclass(frozen=True)
class Script:
    """The seeded part of a segment: who sends in what order, who leaves."""

    bulk_order: Tuple[Tuple[int, ...], ...]  # per bulk round, member indices
    ping_order: Tuple[int, ...]  # sender index per ping
    victims: Tuple[int, ...]  # member index leaving at each odd step


def make_script(workload: Workload, seed: int) -> Script:
    """Derive every choice the segment makes from ``seed`` alone.

    The program under test sees only the resulting calls; the same seed
    gives the same calls on every substrate and in every segment.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    members = list(range(workload.n))
    bulk_order = []
    for _ in range(workload.bulk):
        rng.shuffle(members)
        bulk_order.append(tuple(members))
    rotation = list(range(workload.n))
    rng.shuffle(rotation)
    ping_order = tuple(rotation[i % workload.n] for i in range(workload.pings))
    return Script(tuple(bulk_order), ping_order, _victims(workload, rng))


def _victims(workload: Workload, rng: random.Random) -> Tuple[int, ...]:
    """Who leaves at each leave step: seeded, but never a group leader.

    Under the overlay a leaving group leader costs a third more sync
    messages (and time) than a leaving follower, so overlay workloads
    draw their victims from the followers - seven members in eight -
    which keeps ``sync_msgs_per_view_change`` exact across seeds.  Flat
    workloads cost the same whoever leaves.
    """
    pids = workload.pids()
    leaders = set()
    if workload.leaders:
        leaders = {min(group) for group in balanced_groups(pids, workload.leaders).values()}
    pool = [index for index, pid in enumerate(pids) if pid not in leaders]
    rng.shuffle(pool)
    leaves = (workload.reconf + 1) // 2
    return tuple(pool[i % len(pool)] for i in range(leaves))
