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
  processes as named groups of a :class:`~repro.net.world.SimWorld` on
  ~sqrt(g) membership servers; measures settle latency and - the
  client-server selling point - how few groups one process crash
  actually reconfigures.

:func:`run_scale` renders both axes and lists every violated
acceptance bound; the registry's E19 entry runs it on the default grid
and ``python -m repro scale`` on any other (the full sweep,
n in {32, 200, 1000} x g in {8, 64, 1000} over 1000 processes, is
recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.registry import claim, experiment
from repro.experiments.scenario import SYNC_KINDS, crash_last_member
from repro.experiments.tables import format_table
from repro.net import ConstantLatency, SimWorld
from repro.scale import auto_leaders, install_overlay
from repro.scale.sharding import auto_shards


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
    servers: int
    views_formed: int
    settle_time: float  # virtual time to settle all groups initially
    crash_groups_touched: int  # groups reconfigured by one process crash
    wall_seconds: float
    all_settled: bool


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
    leaders = leaders or auto_leaders(n)
    started = time.perf_counter()
    if substrate == "sim":
        sync, extra_latency, converged = _crash_on_sim(n, leaders, round_duration, check)
    else:
        sync, extra_latency, converged = asyncio.run(
            _crash_on_deployment(n, leaders, substrate, check)
        )
    model = n + leaders * (leaders - 1) + n * leaders
    return ScaleEndpointResult(
        substrate=substrate,
        n=n,
        leaders=leaders,
        sync_messages=sync,
        model_messages=model,
        flat_messages=n * (n - 1),
        model_ratio=sync / model,
        extra_latency=extra_latency,
        wall_seconds=time.perf_counter() - started,
        converged=converged,
    )


def _crash_on_sim(
    n: int, leaders: int, round_duration: float, check: bool
) -> Tuple[int, float, bool]:
    """(sync-carrying messages, extra latency, converged) on the simulator."""
    run = crash_last_member(
        [f"p{i:04d}" for i in range(n)],
        warm_rounds=0,
        leaders=leaders,
        latency=ConstantLatency(1.0),
        round_duration=round_duration,
        gc_views=False,
    )
    membership_time, gcs_time = run.view_times()
    if check:
        run.check()
    return run.sync_messages(), gcs_time - membership_time, run.converged


async def _crash_on_deployment(
    n: int, leaders: int, substrate: str, check: bool
) -> Tuple[int, float, bool]:
    """The same triple on a real substrate - which has no common virtual
    clock, so the extra-latency figure is 0."""
    from repro.deploy import make_deployment

    pids = [f"p{i:04d}" for i in range(n)]
    async with make_deployment(substrate) as deployment:
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
    return sum(counts.get(kind, 0) for kind in SYNC_KINDS), 0.0, converged


def measure_scale_groups(
    *,
    processes: int = 50,
    groups: int = 8,
    group_size: int = 4,
    servers: int = 0,
) -> ScaleGroupsResult:
    """g groups over n processes on a tier of membership servers.

    Groups are overlapping windows over the process ring (group i holds
    processes i .. i+size-1 mod n), so one crash lands in several groups
    but never in most - the locality the tier preserves: each group is
    one round machine at its owning server.
    """
    started = time.perf_counter()
    servers = servers or auto_shards(groups)
    world = SimWorld(servers=servers)
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
    touched = len(world.crash(pids[(groups // 2) % processes]))
    world.run()
    all_settled = all(world.settled(name) for name in names)
    return ScaleGroupsResult(
        processes=processes,
        groups=groups,
        group_size=size,
        servers=servers,
        views_formed=sum(len(world.tier.group_views(name)) for name in names),
        settle_time=settle_time,
        crash_groups_touched=touched,
        wall_seconds=time.perf_counter() - started,
        all_settled=all_settled,
    )


#: The registry's E19 grid - also the defaults of ``python -m repro scale``.
DEFAULT_NS = (32, 200)
DEFAULT_GS = (8, 64)
DEFAULT_PROCESSES = 200
#: Real substrates drive every node through an event loop (and, for tcp,
#: a full socket mesh); they run at smoke scale - their row demonstrates
#: the overlay installs there, not a scaling claim.
REAL_SUBSTRATE_N = 12


def run_scale(
    ns: Sequence[int] = DEFAULT_NS,
    gs: Sequence[int] = DEFAULT_GS,
    processes: int = DEFAULT_PROCESSES,
    substrates: Sequence[str] = ("sim",),
) -> Tuple[List[str], List[str]]:
    """Both E19 tables plus every violated acceptance bound.

    Bounds: each endpoint row converged with sync volume within 2x of
    n + L(L-1) + nL, each group row settled.  Safety checking is
    confined to the small points (the battery is O(trace^2)-ish and
    would dominate n=1000).
    """
    violations: List[str] = []
    rows = []
    for substrate in substrates:
        for n in ns if substrate == "sim" else (REAL_SUBSTRATE_N,):
            r = measure_scale_endpoints(n=n, substrate=substrate, check=n <= 64)
            if not r.converged:
                violations.append(f"endpoint n={n} ({substrate}) did not converge")
            if r.model_ratio > 2.0:
                violations.append(
                    f"endpoint n={n} ({substrate}) sync volume "
                    f"{r.model_ratio:.2f}x the cost model (bound: 2x)"
                )
            rows.append((substrate, r.n, r.leaders, r.sync_messages, r.model_messages,
                         f"{r.model_ratio:.2f}", r.flat_messages,
                         f"{r.wall_seconds:.1f}s", r.converged))
    tables = [format_table(
        ["substrate", "n", "L", "sync msgs", "model", "ratio", "flat", "wall", "converged"],
        rows,
        title="E19 endpoint axis (member crash with two-tier overlay)",
    )]
    rows = []
    for g in gs:
        r = measure_scale_groups(processes=processes, groups=g)
        if not r.all_settled:
            violations.append(f"groups g={g} did not settle")
        rows.append((r.groups, r.servers, r.views_formed,
                     f"{r.crash_groups_touched}/{r.groups}",
                     f"{r.wall_seconds:.1f}s", r.all_settled))
    tables.append(format_table(
        ["groups", "servers", "views", "crash touched", "wall", "settled"],
        rows,
        title=f"E19 group axis (sim, {processes} processes, membership servers)",
    ))
    return tables, violations


@experiment("E19", "Scale sweep: both axes", "Section 9")
def run_e19() -> List[str]:
    tables, violations = run_scale()
    claim(not violations, "; ".join(violations))
    return tables
