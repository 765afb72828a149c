"""The runtime cluster: GCS nodes plus a membership tier on one fabric.

``Cluster`` bundles a *fabric* (a :class:`~repro.runtime.fabric.Fabric`
leg, built by the subclass's ``fabric_cls``), a
:class:`~repro.membership.tier.MembershipTier` of real membership
servers (the same one-round client-server protocol the simulator runs -
see :mod:`repro.membership.server`), and node management.  Servers and
clients are the same kind of thing on the fabric - a pid with a handler
- so membership notices travel like any other traffic, and partitions
cut clients off from their servers exactly as a WAN partition would.

The cluster *is* the :class:`~repro.deploy.base.Deployment` for every
fabric: the membership and fault operations are the base class's, this
module adds node management and the event-driven wait they end in; the
substrate is whichever fabric the subclass names, and every subclass
takes the one option set of :class:`Cluster`.
:class:`AsyncDeployment` picks the in-process
:class:`~repro.runtime.transport.AsyncHub`, :class:`TcpDeployment` the
socket-backed :class:`~repro.runtime.tcp.TcpFabric`; a further substrate
is one more :class:`~repro.runtime.fabric.Fabric` leg and one more
subclass choosing it.

All settling is event-driven: view installations wake the waiters, and a
stuck protocol raises :class:`~repro.errors.SettleTimeoutError` instead
of hanging.  Every node records into one shared :class:`GcsTrace`, so
``repro.checking`` can audit any run post-hoc.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Type

from repro.chaos.faults import FaultInjector
from repro.checking.events import GcsTrace
from repro.core.forwarding import ForwardingStrategy
from repro.deploy.base import Deployment
from repro.membership.tier import MembershipTier
from repro.runtime.fabric import Fabric
from repro.runtime.node import GcsNode
from repro.runtime.settle import await_settled, describe_views
from repro.runtime.tcp import TcpFabric
from repro.runtime.transport import AsyncHub
from repro.types import ProcessId, View


class Cluster(Deployment):
    """A group of GCS nodes with server-based membership on one fabric."""

    # The runtimes run in real seconds, where a few milliseconds already
    # reorder traffic without stretching CI wall-clock.
    time_scale = 0.003
    fabric_cls: Type[Fabric]  # the substrate; each subclass names its own

    def __init__(
        self,
        *,
        forwarding: Optional[ForwardingStrategy] = None,
        servers: int = 1,
        faults: Optional[FaultInjector] = None,
        fastpath: bool = True,
    ) -> None:
        self.fabric = fabric = self.fabric_cls(faults=faults)
        self.links = fabric.core
        self.nodes: Dict[ProcessId, GcsNode] = {}
        self.trace: GcsTrace = GcsTrace()
        self._forwarding = forwarding
        self._fastpath = fastpath
        self.membership = self.tier = MembershipTier(
            fabric,
            servers=servers,
            links=fabric.core,
            trace=self.trace,
            clock=time.monotonic,
        )
        # Set whenever any node installs a view; wakes settling waiters.
        self._progress = asyncio.Event()

    # ------------------------------------------------------------------
    # topology management
    # ------------------------------------------------------------------

    async def add_nodes(self, pids: Iterable[ProcessId]) -> List[GcsNode]:
        """Create and attach one node per pid (before or after ``start``)."""
        created = []
        for pid in pids:
            if pid in self.nodes:
                raise ValueError(f"duplicate node {pid!r}")
            node = GcsNode(
                pid,
                self.fabric,
                self._progress.set,
                forwarding=self._forwarding,
                trace=self.trace,
                fastpath=self._fastpath,
            )
            self.nodes[pid] = node
            self.tier.add_client(pid)
            created.append(node)
        return created

    async def start(self) -> View:
        """Activate the membership tier; wait for the all-nodes view."""
        self.tier.start()
        return await self.await_members(frozenset(self.nodes))

    async def setup(self, pids: Iterable[ProcessId]) -> View:
        await self.add_nodes(pids)
        return await self.start()

    async def send(self, pid: ProcessId, payload: Any) -> None:
        await self.nodes[pid].send(payload)

    async def await_members(
        self, members: FrozenSet[ProcessId], *, min_counter: int = 0
    ) -> View:
        await await_settled(
            lambda: self.common_view(members, min_counter) is not None,
            self._progress,
            describe=lambda: "awaiting view %s; %s"
            % (sorted(members), describe_views({p: self.nodes[p] for p in members})),
        )
        return self.common_view(members, min_counter)

    async def settle(self) -> None:
        """Wait until the fabric carries no more traffic."""
        await self.fabric.quiesce()

    async def close(self) -> None:
        await self.fabric.close()

    # ------------------------------------------------------------------
    # the tool seam
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> object:
        return asyncio.get_running_loop().call_later(delay * self.time_scale, callback)

    def now(self) -> float:
        return time.monotonic()


# Each backend re-exports the four operations the benchmark times: its
# tracer (bench/tracing.py) wraps them per backend class, looking each up
# in the class's own ``__dict__``.


class AsyncDeployment(Cluster):
    """A cluster on the in-process :class:`AsyncHub`."""

    name = "async"
    fabric_cls = AsyncHub
    setup = Cluster.setup
    send = Cluster.send
    settle = Cluster.settle
    reconfigure = Deployment.reconfigure


class TcpDeployment(Cluster):
    """A cluster on loopback sockets (:class:`TcpFabric`): every wire
    message and every membership notice crosses the kernel's TCP stack,
    the closest analogue to the paper's C++ deployment offered here.

    TCP supplies CO_RFIFO's per-connection gap-free FIFO; a broken
    connection is a lost suffix, after which the membership must
    reconfigure - the assumption the paper makes of its substrate [36].
    """

    name = "tcp"
    fabric_cls = TcpFabric
    setup = Cluster.setup
    send = Cluster.send
    settle = Cluster.settle
    reconfigure = Deployment.reconfigure
