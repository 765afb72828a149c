"""E22: what one view change costs as the group grows, against the closed form.

One leave and one rejoin of a member in a group of n on the simulator,
flat and under the section-9 overlay (L = ``auto_leaders``), with the
group idle, with one message per member delivered beforehand (settled)
or still in flight.  Claimed, and deterministic: flat sync volume is
exactly m(m-1) for a ``start_change`` set of m (the leave's (n-1)(n-2)
and the join's n(n-1) average to the benchmark's 225 at n=16); under the
overlay it stays within twice n + L(L-1) + nL, as E19 holds it.  And
``enabled_actions()`` evaluations per end-point do not grow with n: every
end-point gets the round's n-1 syncs at one arrival instant and drains
once per instant (view markers are lazy, so an idle change sends none),
and no row exceeds the smallest group's figure by more than
``EVALUATIONS_SLACK``.  Wire copies and wall
time - with its fitted exponent beside the model's - are printed, not
asserted.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import List, Mapping, Sequence, Tuple

from repro.deploy import make_deployment
from repro.experiments.registry import claim, experiment
from repro.experiments.scenario import SYNC_KINDS
from repro.experiments.tables import format_table
from repro.scale import auto_leaders, install_overlay

#: Group sizes per load shape for the registry run.  In flight stops at 32:
#: Simple forwarding sends ~n^2 copies there, seconds per change at n=64.
#: EXPERIMENTS.md records every shape up to n=128 from the same function.
DEFAULT_GRID = {"idle": (8, 16, 32, 64), "settled": (8, 16, 32, 64), "in flight": (8, 16, 32)}
MODEL_EXPONENT = {"flat": 2.0, "overlay": 1.5}  # n(n-1); n + L(L-1) + nL at L ~ sqrt(n)
#: How far the evaluations per end-point may rise over the smallest n of a
#: (topology, load) shape.  A drain per arriving copy is ~2n + 3 (19 at
#: n=8, 131 at n=64); one per instant stays within a few percent.
EVALUATIONS_SLACK = 1.1


async def measure_reconfiguration_cost(n: int, overlay: bool, loads: Sequence[str]) -> List[Tuple]:
    """One table row per load shape, each the mean of a leave and a rejoin
    of the last member; the shapes run one after another on one group."""
    pids = [f"p{i:03d}" for i in range(n)]
    deployment = make_deployment("sim", round_duration=3.0)
    await deployment.setup(pids)
    leaders = auto_leaders(n) if overlay else 0
    if overlay:
        install_overlay(deployment, leaders=leaders)
    evaluations = [0]
    for node in deployment.nodes.values():
        def counted(evaluate=node.endpoint.enabled_actions):
            evaluations[0] += 1
            return evaluate()
        node.endpoint.enabled_actions = counted
    # start_change sets of n-1 (leave) and n (rejoin), averaged.
    model = n + leaders * (leaders - 1) + n * leaders if overlay else (n - 1) ** 2
    rows = []
    for load in loads:
        sync = wire = evals = wall = 0.0
        for members, target in ((pids, pids[:-1]), (pids[:-1], pids)):
            if load != "idle":
                for pid in members:
                    await deployment.send(pid, f"{load}/{pid}/{len(target)}")
                if load == "settled":
                    await deployment.settle()
            deployment.links.reset_counters()
            evaluations[0] = 0
            started = time.perf_counter()
            await deployment.reconfigure(target)
            wall += (time.perf_counter() - started) * 500.0
            counts = deployment.link_totals()
            sync += sum(counts.get(kind, 0) for kind in SYNC_KINDS) / 2
            wire += sum(counts.values()) / 2
            evals += evaluations[0] / len(target) / 2
            await deployment.settle()
        rows.append(("overlay" if overlay else "flat", load, n, leaders or "-", sync, model,
                     wire, evals, wall))
        claim(sync <= 2 * model if overlay else sync == model,
              "sync copies per view change leave the closed form", rows[-1])
    if n <= 16:
        deployment.check()
    return rows


def fitted_exponent(points: Sequence[Tuple[int, float]]) -> float:
    """Least-squares slope of log(value) over log(n)."""
    xs, ys = [math.log(n) for n, _ in points], [math.log(v) for _, v in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run_reconfiguration_cost(grid: Mapping[str, Sequence[int]] = DEFAULT_GRID) -> List[str]:
    rows = []
    for overlay in (False, True):
        for n in sorted(set().union(*grid.values())):
            loads = [load for load, ns in grid.items() if n in ns]
            rows += asyncio.run(measure_reconfiguration_cost(n, overlay, loads))
    rows.sort(key=lambda row: (row[0], list(grid).index(row[1]), row[2]))
    smallest = {}
    for row in rows:  # sorted: the smallest n of each shape comes first
        evals = row[7]
        claim(evals <= smallest.setdefault(row[:2], evals) * EVALUATIONS_SLACK,
              "evaluations per end-point grow with n (a drain per arriving copy?)", row)
    growth = [
        (topology, load, exponent, fitted_exponent(
            [(n, wall) for kind, shape, n, *_counts, wall in rows if (kind, shape) == (topology, load)]))
        for topology, exponent in MODEL_EXPONENT.items() for load in grid
    ]
    return [
        format_table(
            ["topology", "load", "n", "L", "sync/change", "closed form", "wire/change",
             "evals/end-point", "wall ms"],
            rows, title="E22 reconfiguration cost per view change (one leave + one rejoin, sim)"),
        format_table(
            ["topology", "load", "model exponent", "fitted wall exponent"], growth,
            title="E22 growth over n (wall time is the host's: printed, not asserted)"),
    ]


@experiment("E22", "Reconfiguration cost vs n against the closed form", "Sections 5.2, 9")
def run_e22() -> List[str]:
    return run_reconfiguration_cost()
