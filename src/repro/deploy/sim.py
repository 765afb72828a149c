"""Deployment backend over the discrete-event simulator."""

from __future__ import annotations

from typing import Any, Callable, Iterable, List

from repro.checking.events import GcsTrace
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

    @property
    def _tier(self):
        return self.world.tier

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def setup(self, pids: Iterable[ProcessId]) -> View:
        self.world.add_nodes(list(pids))
        self.world.start()
        self.world.settle()
        view = self.world.views_formed[-1]
        self._verify_installed(view)
        return view

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
        if self._tier is not None:
            changed = self.world.set_members(members)
            self.world.settle()
            if not changed:
                return self.world.node(members[0]).current_view
            view = self.world.views_formed[-1]
            self._verify_installed(view)
            return view
        views = self.world.oracle.reconfigure([members])
        self.world.settle()
        self._verify_installed(views[0])
        return views[0]

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    async def partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[View]:
        groups = [list(group) for group in groups]
        before = len(self.world.views_formed)
        self.world.partition(groups)
        self.world.settle()
        formed = self.world.views_formed[before:]
        if self._tier is not None:
            # The tier forms views in round order, not group order; match
            # each group to its view by membership.
            views = []
            for group in groups:
                target = frozenset(group)
                view = next((v for v in formed if v.members == target), None)
                if view is None:
                    raise SettleTimeoutError(
                        f"no view formed for partition group {sorted(target)}; "
                        f"formed: {formed}"
                    )
                views.append(view)
        else:
            views = formed
        for view in views:
            self._verify_installed(view)
        return views

    async def heal(self) -> View:
        self.world.heal()
        self.world.settle()
        view = self.world.views_formed[-1]
        self._verify_installed(view)
        return view

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
        if self._tier is None:
            return []
        return sorted(self._tier.servers)

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

    @property
    def trace(self) -> GcsTrace:
        return self.world.trace

    @property
    def links(self):
        return self.world.links

    @property
    def nodes(self):
        return self.world.nodes

    def schedule(self, delay: float, callback: Callable[[], None]) -> object:
        return self.world.clock.schedule(delay, callback)

    def now(self) -> float:
        return self.world.clock.now

    def views(self, pid: ProcessId) -> List[View]:
        return [view for view, _transitional in self.world.node(pid).views]

    # ------------------------------------------------------------------

    def _verify_installed(self, view: View) -> None:
        if not self.world.all_in_view(view):
            current = {
                pid: self.world.node(pid).current_view for pid in sorted(view.members)
            }
            raise SettleTimeoutError(
                f"simulation quiescent but {view} not installed everywhere: {current}"
            )
