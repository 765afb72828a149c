"""E13: scalability in the number of groups (Section 1).

The client-server architecture "allows the service to be scalable in
the topology it spans, in the number of groups, and in the number of
clients."  The shape to reproduce: reconfiguring one group costs the
same regardless of how many *other* groups the same processes
participate in - group changes are isolated.  Runs on named groups of
the one simulated world, :class:`~repro.net.world.SimWorld`, on a tier
of one membership server (E19's group axis runs the same tier on
~sqrt(g) servers); the group's notices are wire messages like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.registry import claim, close, experiment
from repro.experiments.tables import format_table
from repro.net import ConstantLatency, SimWorld


@dataclass
class GroupIsolationResult:
    groups: int  # groups every process has joined
    processes: int
    reconfig_latency: float  # one member leaves group-0: time to settle
    messages: int  # wire messages of that reconfiguration
    other_groups_disturbed: int  # views delivered in any other group


def measure_group_isolation(*, groups: int = 4, processes: int = 6) -> GroupIsolationResult:
    """All ``processes`` join ``groups`` groups; one then leaves group-0."""
    world = SimWorld(latency=ConstantLatency(1.0), servers=1)
    pids = [f"p{i}" for i in range(processes)]
    world.add_processes(pids)
    for g in range(groups):
        for pid in pids:
            world.join(pid, f"group-{g}")
    world.run()

    def other_group_views() -> int:
        return sum(
            len(world.node(pid, f"group-{g}").views)
            for g in range(1, groups)
            for pid in pids
        )

    world.links.reset_counters()
    before, start = other_group_views(), world.clock.now
    world.leave(pids[0], "group-0")
    world.run()
    return GroupIsolationResult(
        groups=groups,
        processes=processes,
        reconfig_latency=world.clock.now - start,
        messages=sum(world.links.totals().values()),
        other_groups_disturbed=other_group_views() - before,
    )


@experiment("E13", "Scalability in the number of groups", "Section 1")
def run_e13() -> List[str]:
    results = [measure_group_isolation(groups=g) for g in (1, 4, 16)]
    alone = results[0]
    for r in results:
        claim(r.other_groups_disturbed == 0, "other groups see no view change", r)
        claim(close(r.reconfig_latency, alone.reconfig_latency), "latency as with one group", r)
        claim(r.messages == alone.messages, "message count as with one group", r)
    return [format_table(
        ["total groups", "reconfig latency", "messages", "other groups disturbed"],
        [(r.groups, r.reconfig_latency, r.messages, r.other_groups_disturbed) for r in results],
        title="E13 reconfiguration cost of one group vs total group count "
              f"({alone.processes} processes)",
    )]
