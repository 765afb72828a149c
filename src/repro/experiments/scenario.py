"""The controlled view change most experiments measure, written once.

A group settles on the simulator, optionally carries a warm round of
traffic, then loses its last member; the counters are reset just before
the crash so message counts cover exactly the reconfiguration.  E1-E3,
E7, E8, E10, E14 and E19's endpoint axis differ only in how the world
is configured and in what they read off the settled run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.checking.codes import SAFETY_CODES
from repro.checking.events import MbrshpViewEvent, ViewEvent
from repro.checking.verdict import run_verdict
from repro.net import SimWorld
from repro.scale import TwoTierOverlay, balanced_groups
from repro.types import ProcessId, View

#: Wire kinds that carry a synchronization cut, flat or via the overlay.
SYNC_KINDS = ("SyncMsg", "UpSync", "AggregatedSync")


@dataclass
class CrashRun:
    """A settled world after the crash reconfiguration has run its course."""

    world: SimWorld
    settled_at: float  # virtual time the initial view had settled
    settled_views: Dict[ProcessId, View]  # what each process held then
    crashed_at: float  # virtual time of the crash

    @property
    def view(self) -> View:
        """The view the membership service formed around the crash."""
        return self.world.views_formed[-1]

    @property
    def converged(self) -> bool:
        return self.world.all_in_view(self.view)

    def view_times(self) -> Tuple[float, float]:
        """When the formed view reached its last member, at MBRSHP and at GCS."""
        trace, view = self.world.trace, self.view
        membership = max(e.time for e in trace.of_type(MbrshpViewEvent) if e.view == view)
        gcs = max(e.time for e in trace.of_type(ViewEvent) if e.view == view)
        return membership, gcs

    def messages(self) -> Dict[str, int]:
        """Wire messages by kind since the crash."""
        return dict(self.world.message_counts())

    def sync_messages(self) -> int:
        counts = self.world.message_counts()
        return sum(counts.get(kind, 0) for kind in SYNC_KINDS)

    def check(self) -> None:
        run_verdict(self.world.trace, list(self.world.nodes), include=SAFETY_CODES).raise_for()


def crash_last_member(
    pids: Sequence[ProcessId],
    *,
    warm_rounds: int = 1,
    leaders: int = 0,
    **world_options: Any,
) -> CrashRun:
    """Settle ``pids`` into one view, warm it, crash ``pids[-1]``, settle.

    ``leaders`` > 0 installs the two-tier sync overlay over that many
    balanced leader groups; ``world_options`` go to :class:`SimWorld`.
    """
    pids = list(pids)
    world = SimWorld(**world_options)
    nodes = world.add_nodes(pids)
    if leaders:
        TwoTierOverlay(
            {node.pid: node for node in nodes},
            world.clock.schedule,
            balanced_groups(pids, leaders),
            connected=world.links.connected,
        )
    world.start()
    world.run()
    settled_at, settled_views = world.now(), world.current_views()
    for _ in range(warm_rounds):
        for node in nodes:
            node.send(f"warm-{node.pid}")
    world.run()
    world.links.reset_counters()
    crashed_at = world.now()
    world.crash(pids[-1])
    world.run()
    return CrashRun(world, settled_at, settled_views, crashed_at)
