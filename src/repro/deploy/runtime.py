"""Deployment backends over the asyncio runtime: hub and sockets.

Both run the group on a :class:`~repro.runtime.cluster.Cluster` - real
end-point runners, a :class:`~repro.membership.tier.MembershipTier` of
real membership servers - and differ only in the fabric the cluster
constructor picks.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Iterable, List, Optional

from repro.checking.events import GcsTrace
from repro.deploy.base import Deployment
from repro.links import LinkCore
from repro.runtime.cluster import AsyncCluster, Cluster, TcpCluster
from repro.types import ProcessId, View


class ClusterDeployment(Deployment):
    """The :class:`Deployment` contract on a runtime :class:`Cluster`."""

    #: The cluster constructor; keyword arguments pass through to it.
    make_cluster: Callable[..., Cluster]

    def __init__(self, **cluster_kwargs: Any) -> None:
        self.cluster = self.make_cluster(**cluster_kwargs)

    async def setup(self, pids: Iterable[ProcessId]) -> View:
        await self.cluster.add_nodes(list(pids))
        return await self.cluster.start()

    async def close(self) -> None:
        await self.cluster.close()

    async def send(self, pid: ProcessId, payload: Any) -> None:
        await self.cluster.node(pid).send(payload)

    async def settle(self) -> None:
        await self.cluster.quiesce()

    async def reconfigure(self, members: Iterable[ProcessId]) -> View:
        return await self.cluster.reconfigure(members)

    async def partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[View]:
        return await self.cluster.partition(groups)

    async def heal(self) -> View:
        return await self.cluster.heal()

    async def crash(self, pid: ProcessId) -> None:
        await self.cluster.crash(pid)

    async def recover(self, pid: ProcessId) -> None:
        await self.cluster.recover(pid)

    def server_ids(self) -> List[ProcessId]:
        return sorted(self.cluster.tier.servers)

    async def server_crash(self, sid: Optional[ProcessId] = None) -> ProcessId:
        return await self.cluster.server_crash(sid)

    async def server_recover(self, sid: ProcessId) -> None:
        await self.cluster.server_recover(sid)

    async def server_partition(
        self, groups: Iterable[Iterable[ProcessId]]
    ) -> List[View]:
        return await self.cluster.server_partition(groups)

    @property
    def trace(self) -> GcsTrace:
        return self.cluster.trace

    @property
    def links(self) -> LinkCore:
        return self.cluster.links

    @property
    def nodes(self):
        return self.cluster.nodes

    def schedule(self, delay: float, callback: Callable[[], None]) -> object:
        return asyncio.get_event_loop().call_later(delay * self.time_scale, callback)

    def now(self) -> float:
        return time.monotonic()

    def views(self, pid: ProcessId) -> List[View]:
        return list(self.cluster.node(pid).views)


# Each backend re-exports the four operations the benchmark times: its
# tracer (bench/tracing.py) wraps them per backend class, looking each up
# in the class's own ``__dict__``.


class AsyncDeployment(ClusterDeployment):
    """In-process asyncio queues as the transport
    (:class:`~repro.runtime.cluster.AsyncCluster`)."""

    name = "async"
    make_cluster = AsyncCluster
    setup = ClusterDeployment.setup
    send = ClusterDeployment.send
    settle = ClusterDeployment.settle
    reconfigure = ClusterDeployment.reconfigure


class TcpDeployment(ClusterDeployment):
    """Real loopback sockets (:class:`~repro.runtime.cluster.TcpCluster`):
    every wire message - and every membership notice, since the servers
    listen on sockets of their own - crosses the kernel's TCP stack."""

    name = "tcp"
    make_cluster = TcpCluster
    setup = ClusterDeployment.setup
    send = ClusterDeployment.send
    settle = ClusterDeployment.settle
    reconfigure = ClusterDeployment.reconfigure
