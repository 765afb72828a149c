"""E19: the scale sweep - both axes of the paper's scalability claim.

Section 9 argues the algorithm scales two ways: *in group size*, via the
two-tier leader hierarchy (sync traffic n + L(L-1) + nL instead of the
flat n(n-1)), and *in the number of groups*, via the client-server
architecture (a small membership tier serving many groups).  E19
measures both:

* **endpoint axis** (:func:`measure_scale_endpoints`): one group of n
  members with the :mod:`repro.scale` overlay installed; a member crash
  triggers a reconfiguration and the sync-carrying wire messages are
  counted against the §9 cost model and the flat baseline.  Runs on any
  substrate through :mod:`repro.deploy` (the overlay is
  substrate-agnostic); the n=1000 point runs on the simulator.
* **group axis** (:func:`measure_scale_groups`): g groups over n shared
  processes on a :class:`~repro.groups.MultiGroupWorld` with a
  group-sharded membership tier; measures settle latency and - the
  client-server selling point - how few groups one process crash
  actually reconfigures.

``benchmarks/bench_e19_scale.py`` runs the full sweep
(n in {32, 200, 1000} x g in {8, 64, 1000}) and records
``BENCH_E19.json``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List

from repro.checking.events import MbrshpViewEvent, ViewEvent
from repro.checking.properties import check_all_safety
from repro.groups import MultiGroupWorld
from repro.net import ConstantLatency, SimWorld
from repro.scale import install_overlay
from repro.scale.overlay import TwoTierOverlay, auto_leaders, balanced_groups
from repro.scale.sharding import auto_shards

_SYNC_KINDS = ("SyncMsg", "UpSync", "AggregatedSync")


@dataclass
class ScaleEndpointResult:
    """One endpoint-axis point: a member crash at group size n."""

    substrate: str
    n: int
    leaders: int
    sync_messages: int  # sync-carrying wire copies during the change
    model_messages: int  # §9 two-tier model: n + L(L-1) + nL
    flat_messages: int  # flat baseline: n(n-1)
    model_ratio: float  # measured / model (acceptance: <= 2.0)
    extra_latency: float  # GCS view time - membership view time
    wall_seconds: float
    converged: bool


@dataclass
class ScaleGroupsResult:
    """One group-axis point: g groups over n processes, one crash."""

    processes: int
    groups: int
    group_size: int
    shards: int
    views_formed: int
    settle_time: float  # virtual time to settle all groups initially
    crash_groups_touched: int  # groups reconfigured by one process crash
    wall_seconds: float
    all_settled: bool


def _cost_model(n: int, leaders: int) -> int:
    return n + leaders * (leaders - 1) + n * leaders


def measure_scale_endpoints(
    *,
    n: int = 32,
    leaders: int = 0,
    round_duration: float = 3.0,
    substrate: str = "sim",
    check: bool = False,
) -> ScaleEndpointResult:
    """Crash-triggered reconfiguration at group size ``n`` with the overlay.

    ``leaders=0`` auto-sizes L ~ sqrt(n).  The simulator path drives
    :class:`~repro.net.world.SimWorld` directly (fast enough for
    n=1000); other substrates go through :mod:`repro.deploy` - sized for
    smoke scale, their point is that the *same* overlay installs there.
    """
    leader_count = leaders or auto_leaders(n)
    if substrate == "sim":
        return _measure_endpoints_sim(n, leader_count, round_duration, check)
    return asyncio.run(_measure_endpoints_deploy(n, leader_count, substrate, check))


def _measure_endpoints_sim(
    n: int, leaders: int, round_duration: float, check: bool
) -> ScaleEndpointResult:
    started = time.perf_counter()
    world = SimWorld(
        latency=ConstantLatency(1.0),
        membership="oracle",
        round_duration=round_duration,
        gc_views=False,
    )
    pids = [f"p{i:04d}" for i in range(n)]
    world.add_nodes(pids)
    TwoTierOverlay(
        {pid: node.runner for pid, node in world.nodes.items()},
        world.clock.schedule,
        balanced_groups(pids, leaders),
        connected=world.network.connected,
    )
    world.start()
    world.run()
    world.network.reset_counters()
    world.crash(pids[-1])
    world.run()
    view = world.oracle.views_formed[-1]
    membership_time = max(
        e.time for e in world.trace.of_type(MbrshpViewEvent) if e.view == view
    )
    gcs_time = max(e.time for e in world.trace.of_type(ViewEvent) if e.view == view)
    if check:
        check_all_safety(world.trace, list(world.nodes))
    counts = world.network.totals()
    sync = sum(counts.get(kind, 0) for kind in _SYNC_KINDS)
    model = _cost_model(n, leaders)
    return ScaleEndpointResult(
        substrate="sim",
        n=n,
        leaders=leaders,
        sync_messages=sync,
        model_messages=model,
        flat_messages=n * (n - 1),
        model_ratio=sync / model,
        extra_latency=gcs_time - membership_time,
        wall_seconds=time.perf_counter() - started,
        converged=world.all_in_view(view),
    )


async def _measure_endpoints_deploy(
    n: int, leaders: int, substrate: str, check: bool
) -> ScaleEndpointResult:
    from repro.deploy import make_deployment

    started = time.perf_counter()
    pids = [f"p{i:04d}" for i in range(n)]
    deployment = make_deployment(substrate)
    try:
        await deployment.setup(pids)
        install_overlay(deployment, leaders=leaders)
        await deployment.settle()
        deployment.links.reset_counters()
        await deployment.crash(pids[-1])
        await deployment.settle()
        survivors = frozenset(pids[:-1])
        converged = all(
            deployment.current_view(pid).members == survivors for pid in pids[:-1]
        )
        if check:
            deployment.check()
        counts = deployment.link_totals()
    finally:
        await deployment.close()
    sync = sum(counts.get(kind, 0) for kind in _SYNC_KINDS)
    model = _cost_model(n, leaders)
    return ScaleEndpointResult(
        substrate=substrate,
        n=n,
        leaders=leaders,
        sync_messages=sync,
        model_messages=model,
        flat_messages=n * (n - 1),
        model_ratio=sync / model,
        extra_latency=0.0,  # real substrates have no common virtual clock
        wall_seconds=time.perf_counter() - started,
        converged=converged,
    )


def measure_scale_groups(
    *,
    processes: int = 50,
    groups: int = 8,
    group_size: int = 4,
    shards: int = 0,
    round_duration: float = 1.0,
) -> ScaleGroupsResult:
    """g groups over n processes on the sharded membership tier.

    Groups are overlapping windows over the process ring (group i holds
    processes i .. i+size-1 mod n), so one crash lands in several groups
    but never in most - the locality the sharded tier preserves.
    """
    started = time.perf_counter()
    shard_count = shards or auto_shards(groups)
    world = MultiGroupWorld(round_duration=round_duration, shards=shard_count)
    pids = [f"p{i:04d}" for i in range(processes)]
    world.add_processes(pids)
    size = min(group_size, processes)
    names = [f"g{i:04d}" for i in range(groups)]
    for index, name in enumerate(names):
        world.set_group(name, [pids[(index + k) % processes] for k in range(size)])
    world.run()
    settle_time = world.now()
    # Crash the anchor of the middle group - a process that is a member
    # of several (but far from all) groups.
    touched = world.crash(pids[(groups // 2) % processes])
    world.run()
    all_settled = all(world.settled(name) for name in names)
    return ScaleGroupsResult(
        processes=processes,
        groups=groups,
        group_size=size,
        shards=shard_count,
        views_formed=world.tier.views_formed(),
        settle_time=settle_time,
        crash_groups_touched=touched,
        wall_seconds=time.perf_counter() - started,
        all_settled=all_settled,
    )


def scale_sweep(
    *,
    ns: tuple = (32, 200, 1000),
    gs: tuple = (8, 64, 1000),
    group_processes: int = 1000,
    check_small: bool = True,
) -> tuple:
    """The full E19 table: one endpoint-axis row per n, one group-axis
    row per g.  Safety checking is confined to the small points (the
    battery itself is O(trace^2)-ish and would dominate n=1000)."""
    endpoint_rows: List[ScaleEndpointResult] = []
    for n in ns:
        endpoint_rows.append(
            measure_scale_endpoints(n=n, check=check_small and n <= 64)
        )
    group_rows: List[ScaleGroupsResult] = []
    for g in gs:
        group_rows.append(measure_scale_groups(processes=group_processes, groups=g))
    return endpoint_rows, group_rows


__all__ = [
    "ScaleEndpointResult",
    "ScaleGroupsResult",
    "measure_scale_endpoints",
    "measure_scale_groups",
    "scale_sweep",
]
