"""The runtime cluster: GCS nodes plus a membership tier on one fabric.

``Cluster`` bundles a *fabric* (the :class:`Fabric` contract below), a
:class:`~repro.membership.tier.MembershipTier` of real membership
servers (the same one-round client-server protocol the simulator runs -
see :mod:`repro.membership.server`), and node management.  Servers and
clients are the same kind of thing on the fabric - a pid with a handler
- so membership notices travel like any other traffic, and partitions
cut clients off from their servers exactly as a WAN partition would.

The cluster *is* the :class:`~repro.deploy.base.Deployment`, written
once; the substrate is whichever fabric it is given.
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
from repro.runtime.settle import settle_timeout as env_settle_timeout
from repro.runtime.tcp import TcpFabric
from repro.runtime.transport import AsyncHub
from repro.types import VID_ZERO, ProcessId, View


class Fabric(TierLink, Protocol):
    """What a substrate provides to carry a cluster.

    A fabric moves messages between attached processes - group members
    and membership servers alike - through its unified
    :class:`~repro.links.LinkCore`: ``outbound()`` on admission,
    ``inbound()``/``inbound_batch()`` on arrival, so every message sees
    the one partition matrix, fault pipeline, dedup and counter set of
    ``core``.  Per ordered pair of processes delivery is FIFO and
    gap-free while the pair stays connected (CO_RFIFO, Figure 3).

    The message-moving half is inherited: ``attach(pid, handler)``
    delivers every message for ``pid`` to ``handler(src, message)``, and
    ``send(src, targets, message)`` is a fire-and-forget FIFO multicast
    that never blocks - the whole
    :class:`~repro.membership.tier.TierLink` protocol, which is why the
    tier is handed the fabric itself.
    """

    core: LinkCore

    async def quiesce(self) -> None:
        """Return once no message is in flight; raise
        :class:`~repro.errors.SettleTimeoutError` if traffic never stops."""
        ...  # pragma: no cover - protocol

    async def close(self) -> None:
        """Release tasks and sockets."""
        ...  # pragma: no cover - protocol


class Cluster(Deployment):
    """A group of GCS nodes with server-based membership on one fabric."""

    def __init__(
        self,
        fabric: Fabric,
        *,
        forwarding: Optional[ForwardingStrategy] = None,
        servers: int = 1,
        settle_timeout: Optional[float] = None,
        fastpath: bool = True,
    ) -> None:
        self.fabric = fabric
        self.links = fabric.core
        self.nodes: Dict[ProcessId, GcsNode] = {}
        self.trace: GcsTrace = GcsTrace()
        self._forwarding = forwarding
        self._fastpath = fastpath
        self._settle_timeout = (
            env_settle_timeout(10.0) if settle_timeout is None else settle_timeout
        )
        self.tier = MembershipTier(
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
            await node.attach()
            self.nodes[pid] = node
            self.tier.add_client(pid)
            created.append(node)
        return created

    async def start(self) -> View:
        """Activate the membership tier; wait for the all-nodes view."""
        await self.tier.start()
        return await self.await_members(frozenset(self.nodes))

    async def setup(self, pids: Iterable[ProcessId]) -> View:
        await self.add_nodes(pids)
        return await self.start()

    async def send(self, pid: ProcessId, payload: Any) -> None:
        await self.nodes[pid].send(payload)

    async def reconfigure(self, members: Iterable[ProcessId]) -> View:
        """Drive the membership to ``members`` and wait for the view.

        The tier's servers run their agreement round(s) over the fabric;
        this returns once every member's end-point has installed one
        common view with exactly ``members``.
        """
        member_set = frozenset(members)
        unknown = member_set - set(self.nodes)
        if unknown:
            raise ValueError(f"unknown nodes {sorted(unknown)}")
        if not self.tier.started:
            await self.tier.start()
        self.tier.set_members(member_set)
        return await self.await_members(member_set)

    async def await_members(
        self,
        member_set: FrozenSet[ProcessId],
        *,
        min_counter: int = 0,
    ) -> View:
        """Wait until ``member_set`` share one installed view of themselves.

        ``min_counter`` waits for a *fresh* view (counter at least that
        high) - server faults re-form a view of unchanged membership, so
        matching members alone would accept the stale pre-fault view.
        """
        if not member_set:
            raise ValueError("empty member set")
        members = sorted(member_set)

        def predicate() -> bool:
            views = [self.nodes[pid].current_view for pid in members]
            first = views[0]
            return (
                first.vid != VID_ZERO
                and first.vid.counter >= min_counter
                and first.members == member_set
                and all(v == first for v in views[1:])
            )

        await await_settled(
            predicate,
            self._progress,
            timeout=self._settle_timeout,
            describe=lambda: "awaiting view %s; %s"
            % (members, describe_views({p: self.nodes[p] for p in members})),
        )
        return self.nodes[members[0]].current_view

    async def settle(self) -> None:
        """Wait until the fabric carries no more traffic."""
        await self.fabric.quiesce()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    async def partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[View]:
        """Split the fabric into components; one view forms per group.

        Each group gets its own membership server (grown on demand), cut
        off - together with its clients - from the rest of the world,
        mirroring the simulator's drop-across-the-cut semantics.
        """
        groups = [list(group) for group in groups]
        # Crashed servers hold no partition group: capacity must cover
        # the groups with *alive* servers (the simulator grows its
        # tier synchronously; sockets need the explicit await here).
        await self.tier.ensure_capacity(
            max(len(groups) + len(self.tier.crashed_servers()), len(self.tier.servers))
        )
        plan = self.tier.plan_partition(groups)
        # The tier cuts the fabric's link core along plan.components itself.
        self.tier.apply_partition(plan)
        return [await self.await_members(frozenset(group)) for group in groups]

    async def heal(self) -> View:
        """Reconnect everyone; wait for the merged view."""
        self.tier.heal()  # heals the fabric's link core too
        return await self.await_members(self.tier.active_members())

    async def crash(self, pid: ProcessId) -> Optional[View]:
        """Crash ``pid``; wait for the survivors' view (if any survive)."""
        self.nodes[pid].crash()
        self.tier.client_crashed(pid)
        survivors = self.tier.active_members()
        return await self.await_members(survivors) if survivors else None

    async def recover(self, pid: ProcessId) -> View:
        """Recover ``pid``; wait for the view re-admitting it."""
        self.nodes[pid].recover()
        self.tier.client_recovered(pid)
        return await self.await_members(self.tier.active_members())

    # ------------------------------------------------------------------
    # the server fault domain
    # ------------------------------------------------------------------

    def server_ids(self) -> List[ProcessId]:
        return sorted(self.tier.servers)

    async def server_crash(self, sid: Optional[ProcessId] = None) -> ProcessId:
        """Crash a membership server; wait for the failover view."""
        fresh = self.tier.watermark() + 1
        sid = self.tier.crash_server(sid)
        members = self.tier.active_members()
        if members:
            await self.await_members(members, min_counter=fresh)
        return sid

    async def server_recover(self, sid: ProcessId) -> View:
        """Recover a crashed server; wait for its rejoin view."""
        fresh = self.tier.watermark() + 1
        self.tier.recover_server(sid)
        return await self.await_members(self.tier.active_members(), min_counter=fresh)

    async def server_partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[View]:
        """Partition the server tier; one view per non-empty component."""
        fresh = self.tier.watermark() + 1
        effective = self.tier.partition_servers(groups)
        views = []
        for group in effective:
            members = self.tier.clients_of(group)
            if members:
                views.append(await self.await_members(members, min_counter=fresh))
        return views

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
    reconfigure = Cluster.reconfigure

    def __init__(
        self,
        *,
        delay: float = 0.0,
        forwarding: Optional[ForwardingStrategy] = None,
        servers: int = 1,
        settle_timeout: Optional[float] = None,
        faults: Optional[FaultInjector] = None,
        fastpath: bool = True,
    ) -> None:
        super().__init__(
            AsyncHub(delay=delay, faults=faults),
            forwarding=forwarding,
            servers=servers,
            settle_timeout=settle_timeout,
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
    reconfigure = Cluster.reconfigure

    def __init__(
        self,
        *,
        servers: int = 1,
        settle_timeout: Optional[float] = None,
        faults: Optional[FaultInjector] = None,
        fastpath: bool = True,
    ) -> None:
        super().__init__(
            TcpFabric(faults=faults),
            servers=servers,
            settle_timeout=settle_timeout,
            fastpath=fastpath,
        )
