"""Deployment backend over the discrete-event simulator."""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable

from repro.deploy.base import Deployment
from repro.errors import SettleTimeoutError
from repro.net.world import SimWorld
from repro.types import ProcessId, View


class SimDeployment(Deployment):
    """Runs the group on :class:`SimWorld`.  Membership is the scripted
    oracle by default, or - with ``servers=N`` - the same
    crash-recoverable :class:`~repro.membership.tier.MembershipTier` the
    runtime clusters use, over the simulated network.  The async methods
    complete synchronously - the simulated clock runs to quiescence
    inside each wait."""

    name = "sim"
    time_scale = 1.0
    reconfigure = Deployment.reconfigure  # the tracer's per-backend lookup

    def __init__(self, **world_kwargs: Any) -> None:
        self.world = world = SimWorld(**world_kwargs)
        self.trace = world.trace
        self.links = world.links
        self.nodes = world.nodes
        self.membership = world.membership

    async def setup(self, pids: Iterable[ProcessId]) -> View:
        self.world.add_nodes(list(pids))
        self.world.start()
        return await self.await_members(frozenset(self.nodes))

    async def close(self) -> None:
        pass  # nothing runs between calls; the world is plain objects

    async def send(self, pid: ProcessId, payload: Any) -> None:
        node = self.world.node(pid)
        if node.blocked:
            # The Figure 12 contract: wait out the pending view change.
            self.world.settle()
        node.send(payload)

    async def settle(self) -> None:
        self.world.settle()

    async def await_members(
        self, members: FrozenSet[ProcessId], *, min_counter: int = 0
    ) -> View:
        self.world.settle()
        view = self.common_view(members, min_counter)
        if view is None:
            current = {pid: self.nodes[pid].current_view for pid in sorted(members)}
            raise SettleTimeoutError(
                f"simulation quiescent but no view of {sorted(members)} "
                f"installed everywhere: {current}"
            )
        return view

    def _crash_host(self, pid: ProcessId) -> None:
        self.world.crash_process(pid)

    def _recover_host(self, pid: ProcessId) -> None:
        self.world.recover_process(pid)

    def schedule(self, delay: float, callback: Callable[[], None]) -> object:
        return self.world.clock.schedule(delay, callback)

    def now(self) -> float:
        return self.world.clock.now
