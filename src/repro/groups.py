"""Multiple multicast groups over shared processes (paper Section 1).

The paper restricts its presentation to a single group "for simplicity's
sake" but motivates the client-server architecture with scalability "in
the number of groups": membership servers track many groups, while a
client process runs a GCS end-point *per group it joins* over one shared
transport.  This module realises that: a
:class:`MultiGroupProcess` hosts one end-point automaton per joined
group, wire messages travel in :class:`GroupEnvelope` wrappers, and
membership comes from one
:class:`~repro.scale.sharding.ShardedMembershipTier` keyed by group: a
small tier serving a number of groups far exceeding its own size, where
reconfiguring one group never touches the others (experiment E13) and a
process crash reconfigures only the shards owning one of its groups
(E19's group axis runs this world at g=1000 over n=1000 processes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.checking.events import GcsTrace
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import WireMessage
from repro.core.runner import EndpointRunner
from repro.net.latency import LatencyModel
from repro.net.network import SimNetwork
from repro.net.simclock import EventScheduler
from repro.net.transport import SimTransport
from repro.scale.sharding import GroupName, ShardedMembershipTier
from repro.types import ProcessId, View


@dataclass(frozen=True)
class GroupEnvelope:
    """A group-tagged wire message on the shared transport."""

    group: GroupName
    message: WireMessage


class MultiGroupProcess:
    """One client process participating in any number of groups."""

    def __init__(self, pid: ProcessId, world: "MultiGroupWorld") -> None:
        self.pid = pid
        self.world = world
        self.transport = SimTransport(pid, world.network, self._on_wire)
        self._runners: Dict[GroupName, EndpointRunner] = {}
        self._reliable: Dict[GroupName, FrozenSet[ProcessId]] = {}
        # observable per group
        self.delivered: Dict[GroupName, List[Tuple[ProcessId, Any]]] = {}
        self.views: Dict[GroupName, List[Tuple[View, FrozenSet[ProcessId]]]] = {}

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------

    def groups(self) -> List[GroupName]:
        return sorted(self._runners)

    def send(self, group: GroupName, payload: Any) -> None:
        """Multicast ``payload`` to the current view of ``group``."""
        self._runners[group].app_send(payload)

    def current_view(self, group: GroupName) -> View:
        return self._runners[group].endpoint.current_view

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _runner_for(self, group: GroupName) -> EndpointRunner:
        runner = self._runners.get(group)
        if runner is not None:
            return runner
        endpoint = GcsEndpoint(self.pid, gc_views=True)
        self.delivered[group] = []
        self.views[group] = []
        runner = EndpointRunner(
            endpoint,
            send_wire=lambda targets, m, g=group: self.transport.send(
                targets, GroupEnvelope(g, m)
            ),
            set_reliable=lambda targets, g=group: self._set_reliable(g, targets),
            on_deliver=lambda sender, payload, g=group: self.delivered[g].append(
                (sender, payload)
            ),
            on_view=lambda view, T, g=group: self.views[g].append((view, T)),
            auto_block_ok=True,
            clock=lambda: self.world.clock.now,
            trace=self.world.trace,
        )
        self._runners[group] = runner
        return runner

    def _set_reliable(self, group: GroupName, targets: Iterable[ProcessId]) -> None:
        # One transport serves all groups: keep the union reliable.  Being
        # more reliable than one group asks is the safe direction of the
        # CO_RFIFO contract.
        self._reliable[group] = frozenset(targets)
        union: Set[ProcessId] = set()
        for targets_of_group in self._reliable.values():
            union |= targets_of_group
        self.transport.set_reliable(union)

    def _on_wire(self, src: ProcessId, message: Any) -> None:
        if not isinstance(message, GroupEnvelope):
            return
        runner = self._runners.get(message.group)
        if runner is not None:
            runner.receive(src, message.message)

    def crash(self) -> None:
        """Crash every group's end-point, and the shared transport once."""
        for runner in self._runners.values():
            if not runner.endpoint.crashed:
                runner.crash()
        self.transport.crash()

    # membership notice entry points, called by the world's tier
    def _membership_start_change(self, group: GroupName, cid: int, members) -> None:
        self._runner_for(group).membership_start_change(cid, members)

    def _membership_view(self, group: GroupName, view: View) -> None:
        self._runner_for(group).membership_view(view)


class MultiGroupWorld:
    """A simulated deployment hosting many groups over shared processes."""

    def __init__(
        self,
        *,
        latency: Optional[LatencyModel] = None,
        round_duration: float = 1.0,
        shards: int = 1,
    ) -> None:
        self.clock = EventScheduler()
        self.network = SimNetwork(self.clock, latency)
        self.trace = GcsTrace()
        self.round_duration = round_duration
        self.tier = ShardedMembershipTier(
            self.clock, shards=shards, round_duration=round_duration
        )
        self.processes: Dict[ProcessId, MultiGroupProcess] = {}

    # ------------------------------------------------------------------
    # construction and membership
    # ------------------------------------------------------------------

    def add_process(self, pid: ProcessId) -> MultiGroupProcess:
        if pid in self.processes:
            raise ValueError(f"duplicate process {pid!r}")
        process = MultiGroupProcess(pid, self)
        self.processes[pid] = process
        return process

    def add_processes(self, pids: Iterable[ProcessId]) -> List[MultiGroupProcess]:
        return [self.add_process(pid) for pid in pids]

    def _attach(self, group: GroupName, pid: ProcessId) -> None:
        process = self.processes[pid]
        if group in process._runners:
            return  # a runner exists only once its sinks are attached
        process._runner_for(group)
        self.tier.attach_client(
            group,
            pid,
            on_start_change=lambda cid, members, g=group, pr=process:
                pr._membership_start_change(g, cid, members),
            on_view=lambda view, g=group, pr=process:
                pr._membership_view(g, view),
        )

    def join(self, pid: ProcessId, group: GroupName) -> None:
        """Add ``pid`` to ``group`` and reconfigure that group only."""
        self._attach(group, pid)
        self.tier.join(group, pid)

    def leave(self, pid: ProcessId, group: GroupName) -> None:
        """Remove ``pid`` from ``group`` and reconfigure that group only."""
        self.tier.leave(group, pid)

    def set_group(self, group: GroupName, members: Iterable[ProcessId]) -> Optional[View]:
        """Drive ``group`` to exactly ``members`` with a single round."""
        members = list(members)
        for pid in members:
            self._attach(group, pid)
        return self.tier.set_group(group, members)

    def members(self, group: GroupName) -> FrozenSet[ProcessId]:
        return self.tier.members(group)

    def group_view(self, group: GroupName) -> Optional[View]:
        return self.tier.group_view(group)

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------

    def crash(self, pid: ProcessId) -> int:
        """Crash ``pid`` in every group it joined.

        Returns the number of groups reconfigured - by construction only
        the crashed process's own groups, on only the shards owning
        them.
        """
        self.processes[pid].crash()
        return len(self.tier.client_crashed(pid))

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> int:
        return self.clock.run(max_events)

    def now(self) -> float:
        return self.clock.now

    def settled(self, group: GroupName) -> bool:
        """Every member of ``group``'s latest view has installed it."""
        view = self.group_view(group)
        if view is None:
            return False
        return all(
            self.processes[pid].current_view(group) == view for pid in view.members
        )

    def __repr__(self) -> str:
        return f"<MultiGroupWorld processes={len(self.processes)} tier={self.tier!r}>"
