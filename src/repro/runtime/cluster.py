"""The runtime cluster: GCS nodes plus a membership tier on one fabric.

``Cluster`` bundles a *fabric* (the :class:`Fabric` contract below), a
:class:`~repro.membership.tier.MembershipTier` of real membership
servers (the same one-round client-server protocol the simulator runs -
see :mod:`repro.membership.server`), and node management.  Servers and
clients are the same kind of thing on the fabric - a pid with a handler
- so membership notices travel like any other traffic, and partitions
cut clients off from their servers exactly as a WAN partition would.

The cluster *is* the :class:`~repro.deploy.base.Deployment` for every
fabric: the membership and fault operations are the base class's, this
module adds node management and the event-driven wait they end in; the
substrate is whichever fabric it is given.
:class:`AsyncDeployment` picks the in-process
:class:`~repro.runtime.transport.AsyncHub`, :class:`TcpDeployment` the
socket-backed :class:`~repro.runtime.tcp.TcpFabric`; a further substrate
is one more :class:`Fabric` and one more subclass choosing it.

All settling is event-driven: view installations wake the waiters, and a
stuck protocol raises :class:`~repro.errors.SettleTimeoutError` instead
of hanging.  Every node records into one shared :class:`GcsTrace`, so
``repro.checking`` can audit any run post-hoc.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Protocol

from repro.chaos.faults import FaultInjector
from repro.checking.events import GcsTrace
from repro.core.forwarding import ForwardingStrategy
from repro.deploy.base import Deployment
from repro.links import LinkCore
from repro.membership.tier import MembershipTier, TierLink
from repro.runtime.node import GcsNode
from repro.runtime.settle import await_settled, describe_views
from repro.runtime.tcp import TcpFabric
from repro.runtime.transport import AsyncHub
from repro.types import ProcessId, View


class Fabric(TierLink, Protocol):
    """What a substrate provides to carry a cluster.

    A fabric moves messages between attached processes - group members
    and membership servers alike - through its unified
    :class:`~repro.links.LinkCore`: ``admit()`` on admission,
    ``inbound()``/``inbound_batch()`` on arrival, so every message sees
    the one partition matrix, fault pipeline, dedup and counter set of
    ``core``.  Per ordered pair of processes delivery is FIFO and
    gap-free while the pair stays connected (CO_RFIFO, Figure 3).

    The message-moving half is inherited: ``attach(pid, handler)``
    delivers every message for ``pid`` to ``handler(src, message)``, and
    ``send(src, targets, message)`` is a fire-and-forget FIFO multicast
    that never blocks and admits every copy to ``core`` before it
    returns, so the core's in-flight ledger covers it from then on - the
    whole
    :class:`~repro.membership.tier.TierLink` protocol, which is why the
    tier is handed the fabric itself.
    """

    core: LinkCore

    def check_payload(self, payload: Any) -> None:
        """Raise ``TypeError`` (or ``ValueError``) for an application
        payload this fabric cannot carry."""
        ...  # pragma: no cover - protocol

    async def pace(self, src: ProcessId) -> None:
        """Yield to the loop, or not, after an application send by ``src``:
        the fabric decides how much of a burst its pumps see at once."""
        ...  # pragma: no cover - protocol

    async def quiesce(self) -> None:
        """Return once ``core.in_flight`` is zero; raise
        :class:`~repro.errors.SettleTimeoutError` if traffic never stops."""
        ...  # pragma: no cover - protocol

    async def close(self) -> None:
        """Release tasks and sockets."""
        ...  # pragma: no cover - protocol


class Cluster(Deployment):
    """A group of GCS nodes with server-based membership on one fabric."""

    # The runtimes run in real seconds, where a few milliseconds already
    # reorder traffic without stretching CI wall-clock.
    time_scale = 0.003

    def __init__(
        self,
        fabric: Fabric,
        *,
        forwarding: Optional[ForwardingStrategy] = None,
        servers: int = 1,
        fastpath: bool = True,
    ) -> None:
        self.fabric = fabric
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
    setup = Cluster.setup
    send = Cluster.send
    settle = Cluster.settle
    reconfigure = Deployment.reconfigure

    def __init__(
        self,
        *,
        delay: float = 0.0,
        forwarding: Optional[ForwardingStrategy] = None,
        servers: int = 1,
        faults: Optional[FaultInjector] = None,
        fastpath: bool = True,
    ) -> None:
        super().__init__(
            AsyncHub(delay=delay, faults=faults),
            forwarding=forwarding,
            servers=servers,
            fastpath=fastpath,
        )


class TcpDeployment(Cluster):
    """A cluster on loopback sockets (:class:`TcpFabric`): every wire
    message and every membership notice crosses the kernel's TCP stack,
    the closest analogue to the paper's C++ deployment offered here.

    TCP supplies CO_RFIFO's per-connection gap-free FIFO; a broken
    connection is a lost suffix, after which the membership must
    reconfigure - the assumption the paper makes of its substrate [36].
    """

    name = "tcp"
    setup = Cluster.setup
    send = Cluster.send
    settle = Cluster.settle
    reconfigure = Deployment.reconfigure

    def __init__(
        self,
        *,
        servers: int = 1,
        faults: Optional[FaultInjector] = None,
        fastpath: bool = True,
    ) -> None:
        super().__init__(
            TcpFabric(faults=faults),
            servers=servers,
            fastpath=fastpath,
        )
