"""E5: obsolete-view suppression (Section 1).

The paper: "our algorithm never delivers views that reflect a membership
that is already known to be out of date" - when the membership changes
its mind during a reconfiguration (new joiners, revised estimates), the
start_change interface lets it *revise* the attempt in flight: clients
get a fresh start_change, re-synchronise under the new identifier, and
only the final view reaches the application.  Integrated prior designs
(e.g. [22, 16]) must run each membership invocation to completion,
delivering every intermediate view to the application and paying an
application-level reconfiguration for each.

The experiment fires ``churn`` membership revisions in one burst and
counts application-visible views per process:

* ``revise`` mode - the revisions supersede each other (our interface);
* ``serialize`` mode - each invocation completes before the next starts
  (the prior-art discipline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.checking.codes import SAFETY_CODES
from repro.checking.verdict import run_verdict
from repro.experiments.registry import claim, close, experiment
from repro.experiments.tables import format_table
from repro.net import ConstantLatency, LatencyModel, SimWorld


@dataclass
class ObsoleteViewResult:
    mode: str
    group_size: int
    churn: int
    app_views_per_process: float  # views the application processed
    total_time: float  # burst start to final convergence
    converged: bool


def measure_obsolete_views(
    mode: str = "revise",
    *,
    group_size: int = 6,
    churn: int = 4,
    round_duration: float = 4.0,
    latency: Optional[LatencyModel] = None,
    check: bool = False,
) -> ObsoleteViewResult:
    if mode not in ("revise", "serialize"):
        raise ValueError(f"mode must be 'revise' or 'serialize', got {mode!r}")
    latency = latency or ConstantLatency(1.0)
    world = SimWorld(
        latency=latency,
        round_duration=round_duration,
        gc_views=False,
    )
    pids = [f"p{i}" for i in range(group_size)]
    world.add_nodes(pids)
    world.start()
    world.run()
    settled = {pid: len(world.nodes[pid].views) for pid in pids}

    start = world.now()
    if mode == "revise":
        # each revision lands mid-round and supersedes the previous attempt
        for _ in range(churn):
            world.oracle.reconfigure([pids])
            world.run_until(world.now() + round_duration / 2)
    else:
        # prior-art discipline: every invocation runs to completion
        for _ in range(churn):
            world.oracle.reconfigure([pids])
            world.run()
    world.run()
    total_time = world.now() - start

    final = world.oracle.views_formed[-1]
    converged = world.all_in_view(final)
    if check:
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
    app_views = [len(world.nodes[pid].views) - settled[pid] for pid in pids]
    return ObsoleteViewResult(
        mode=mode,
        group_size=group_size,
        churn=churn,
        app_views_per_process=sum(app_views) / len(app_views),
        total_time=total_time,
        converged=converged,
    )


@experiment("E5", "Obsolete-view suppression", "Section 1")
def run_e5() -> List[str]:
    rows = []
    for churn in (2, 4, 6):
        for mode in ("revise", "serialize"):
            r = measure_obsolete_views(mode, churn=churn)
            claim(r.converged, "burst converges", r)
            claimed = 1.0 if mode == "revise" else float(churn)
            claim(close(r.app_views_per_process, claimed), "application-visible views", r)
            rows.append((mode, churn, r.app_views_per_process, claimed, r.total_time))
    return [format_table(
        ["mode", "membership revisions", "app views/process", "claimed", "settle time"],
        rows,
        title="E5 obsolete-view suppression: revise-in-flight vs run-to-completion",
    )]
