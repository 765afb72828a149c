"""Deployment backend over the discrete-event simulator."""

from __future__ import annotations

from typing import Any, Callable, Iterable, List

from repro.deploy.base import Deployment
from repro.errors import SettleTimeoutError
from repro.net.world import SimWorld
from repro.types import ProcessId, View


class SimDeployment(Deployment):
    """Runs the group on :class:`SimWorld`.  Membership is the scripted
    oracle by default, or - with ``membership='tier'`` - the same
    crash-recoverable :class:`~repro.membership.tier.MembershipTier` the
    runtime clusters use, over the simulated network.  The async methods
    complete synchronously - the simulated clock runs to quiescence
    inside each call."""

    name = "sim"

    def __init__(self, **world_kwargs: Any) -> None:
        self.world = SimWorld(**world_kwargs)
        self.trace = self.world.trace
        self.links = self.world.links
        self.nodes = self.world.nodes

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def setup(self, pids: Iterable[ProcessId]) -> View:
        self.world.add_nodes(list(pids))
        self.world.start()
        self.world.settle()
        return self._installed(self.world.views_formed[-1])

    async def close(self) -> None:
        pass  # nothing runs between calls; the world is plain objects

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    async def send(self, pid: ProcessId, payload: Any) -> None:
        node = self.world.node(pid)
        if node.runner.blocked:
            # The Figure 12 contract: wait out the pending view change.
            self.world.settle()
        node.send(payload)

    async def settle(self) -> None:
        self.world.settle()

    async def reconfigure(self, members: Iterable[ProcessId]) -> View:
        members = list(members)
        changed = self.world.set_members(members)
        self.world.settle()
        if not changed:
            return self.world.node(members[0]).current_view
        return self._installed(self.world.views_formed[-1])

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    async def partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[View]:
        groups = [list(group) for group in groups]
        before = len(self.world.views_formed)
        self.world.partition(groups)
        self.world.settle()
        formed = self.world.views_formed[before:]
        # Views form in round order, not group order, and of live clients
        # only: match each group to its view by membership.
        nodes = self.nodes
        views = []
        for group in groups:
            target = frozenset(p for p in group if p in nodes and not nodes[p].crashed)
            if not target:
                continue
            view = next((v for v in formed if v.members == target), None)
            if view is None:
                raise SettleTimeoutError(
                    f"no view formed for partition group {sorted(target)}; formed: {formed}"
                )
            views.append(self._installed(view))
        return views

    async def heal(self) -> View:
        self.world.heal()
        self.world.settle()
        return self._installed(self.world.views_formed[-1])

    async def crash(self, pid: ProcessId) -> None:
        self.world.crash(pid)
        self.world.settle()

    async def recover(self, pid: ProcessId) -> None:
        self.world.recover(pid)
        self.world.settle()

    # ------------------------------------------------------------------
    # the server fault domain (tier mode)
    # ------------------------------------------------------------------

    def server_ids(self) -> List[ProcessId]:
        tier = self.world.tier
        return [] if tier is None else sorted(tier.servers)

    async def server_crash(self, sid: ProcessId = None) -> ProcessId:
        sid = self.world.server_crash(sid)
        self.world.settle()
        return sid

    async def server_recover(self, sid: ProcessId) -> None:
        self.world.server_recover(sid)
        self.world.settle()

    async def server_partition(self, groups: Iterable[Iterable[ProcessId]]) -> None:
        self.world.server_partition(groups)
        self.world.settle()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> object:
        return self.world.clock.schedule(delay, callback)

    def now(self) -> float:
        return self.world.clock.now

    # ------------------------------------------------------------------

    def _installed(self, view: View) -> View:
        """``view``, once every member has installed it."""
        if not self.world.all_in_view(view):
            current = {pid: self.world.node(pid).current_view for pid in sorted(view.members)}
            raise SettleTimeoutError(
                f"simulation quiescent but {view} not installed everywhere: {current}"
            )
        return view
