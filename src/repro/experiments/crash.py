"""E8: crash and recovery without stable storage (Section 8).

A member crashes mid-traffic and later recovers *with its variables in
initial state* but under its original identity.  The experiment measures
how long the surviving group needs to reconfigure around the crash, how
long reintegration takes after recovery, and verifies that the recovered
process ends up in the same final view and receives post-recovery traffic
- the paper's claim that the algorithm remains meaningful without stable
storage because the membership service keeps the watermarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.registry import claim, experiment
from repro.experiments.scenario import crash_last_member
from repro.experiments.tables import format_table
from repro.net import ConstantLatency, LatencyModel


@dataclass
class CrashRecoveryResult:
    group_size: int
    reconfigure_after_crash: float  # crash to survivors' view
    reintegration_time: float  # recovery to full view everywhere
    recovered_in_final_view: bool
    post_recovery_delivery_ok: bool
    monotone_view_ids: bool


def measure_crash_recovery(
    *,
    group_size: int = 5,
    round_duration: float = 2.0,
    latency: Optional[LatencyModel] = None,
    check: bool = False,
) -> CrashRecoveryResult:
    pids = [f"p{i}" for i in range(group_size)]
    run = crash_last_member(
        pids,
        latency=latency or ConstantLatency(1.0),
        round_duration=round_duration,
        gc_views=False,
    )
    world, victim = run.world, pids[-1]
    reconfigured = world.now() - run.crashed_at

    t_recover = world.now()
    world.recover(victim)
    world.run()
    reintegrated = world.now() - t_recover

    final = world.oracle.views_formed[-1]
    world.nodes[pids[0]].send("post-recovery")
    world.run()
    if check:
        run.check()
    victim_views = [v for v, _t in world.nodes[victim].views]
    vids = [v.vid for v in victim_views]
    return CrashRecoveryResult(
        group_size=group_size,
        reconfigure_after_crash=reconfigured,
        reintegration_time=reintegrated,
        recovered_in_final_view=world.nodes[victim].current_view == final,
        post_recovery_delivery_ok=(pids[0], "post-recovery") in world.nodes[victim].delivered,
        monotone_view_ids=vids == sorted(vids) and len(set(vids)) == len(vids),
    )


@experiment("E8", "Crash and recovery without stable storage", "Section 8")
def run_e8() -> List[str]:
    rows = []
    for n in (3, 5, 9):
        r = measure_crash_recovery(group_size=n, check=True)
        claim(r.recovered_in_final_view, "recovered process rejoins the final view", r)
        claim(r.post_recovery_delivery_ok, "recovered process gets post-recovery traffic", r)
        claim(r.monotone_view_ids, "view identifiers monotone across the crash", r)
        rows.append((r.group_size, r.reconfigure_after_crash, r.reintegration_time,
                     r.recovered_in_final_view, r.monotone_view_ids))
    return [format_table(
        ["n", "reconfig after crash", "reintegration", "rejoined final view", "monotone ids"],
        rows,
        title="E8 crash/recovery without stable storage",
    )]
