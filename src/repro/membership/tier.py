"""A substrate-neutral membership-server tier.

The paper's client-server architecture puts membership agreement on a
small tier of dedicated servers; the GCS end-points only ever see the
MBRSHP interface (``start_change`` / ``view`` notices).  ``MembershipTier``
assembles such a tier out of :class:`~repro.membership.server.MembershipServer`
instances over *any* transport: the substrate contributes the two calls
of the :class:`TierLink` protocol below, and the tier contributes the
whole Figure 2 discipline - fresh locally-unique cids, monotone view
counters, one-round (two in the cold-registry case) view agreement.

This is what lets the asyncio and TCP deployments run the *same*
membership algorithm as the simulator instead of an ad-hoc in-process
coordinator.  A runtime fabric (:class:`~repro.runtime.fabric.Fabric` -
the asyncio hub, the socket fabric) *is* a ``TierLink``: servers attach
to it exactly like group members do, so :class:`~repro.runtime.cluster.Cluster`
hands the tier its fabric; :class:`~repro.net.world.SimWorld` hands it
its own ``attach`` / ``send``, the pair its end-points send through.

Topology input (who can reach whom among servers) is injected by the
deployment when it partitions or heals its transport or crashes a
server: the tier is each server's failure detector, on every substrate.

The tier serves many groups (paper Section 1) by composition, not by
re-keying the protocol: everything above is the *default* group, and a
*named* group is one more :class:`MembershipServer` round machine placed
at the group's **owning server** - its configuration the owner alone, so
a round completes with no proposal exchange - with a cid registry and a
durable counter floor of its own, its notices wrapped in a
:class:`~repro.membership.protocol.GroupEnvelope` on the owner's link.
A group moves only when its owner crashes (see :meth:`MembershipTier.crash_server`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Protocol,
    Set,
    Union,
)

from repro.checking.events import GcsTrace, MbrshpFormEvent
from repro.links import LinkCore, Run
from repro.membership.protocol import GroupEnvelope, server_id
from repro.membership.server import MembershipServer
from repro.membership.state import WatermarkStore
from repro.scale.sharding import GroupName, GroupShardMap
from repro.types import ProcessId, StartChangeId, View


class TierLink(Protocol):
    """What a substrate must provide to host membership servers.

    ``attach`` registers a server's inbox on the substrate, without
    awaiting - a socket transport binds and listens at once and starts
    accepting from its own task - so the tier grows itself wherever it
    finds it is short of servers.  The inbox takes a *run*
    (:data:`~repro.links.Run`): ``(src, messages)`` groups in arrival
    order, as ``LinkCore.inbound_batch`` resolved them - a runtime
    fabric's one pump wake-up, or, on the simulator, one copy.  A
    server takes its run message by message
    (:meth:`~repro.membership.server.MembershipServer.on_run`).

    ``send`` carries one tier message from a server to other processes -
    servers (proposals) or clients (start_change / view notices) - and
    never blocks.  The pair is the attach/send half of the runtime's
    :class:`~repro.runtime.fabric.Fabric`, so any fabric hosts a tier as
    it is.

    ``send`` is *not* a side-channel: it must route the message
    through the substrate's unified :class:`~repro.links.LinkCore`
    (``admit()`` on admission, ``inbound()``/``inbound_batch()`` on
    arrival) exactly like data traffic, so tier messages see the same
    partition matrix, fault pipeline, receiver-side dedup, per-link FIFO
    clamp, and :class:`~repro.links.LinkStats` counters - which is what
    makes ``Deployment.link_totals()`` and the settle-timeout
    busiest-link diagnostics cover membership traffic too.
    """

    def attach(self, sid: ProcessId, handler: Callable[[Run], None]) -> None:
        ...  # pragma: no cover - protocol

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        ...  # pragma: no cover - protocol


@dataclass
class PartitionPlan:
    """A computed partition: which server serves which group, and the
    transport components (clients plus their server) the deployment must
    cut before the tier announces the change."""

    groups: List[FrozenSet[ProcessId]]
    assignment: Dict[ProcessId, FrozenSet[ProcessId]]  # sid -> clients
    components: List[List[ProcessId]]


class _Group:
    """A named group at the tier: its round machine at the owning server,
    and the registry that outlives the owner."""

    def __init__(self) -> None:
        self.machine: Optional[MembershipServer] = None  # MembershipTier._place
        self.cids: Dict[ProcessId, StartChangeId] = {}
        self.views: List[View] = []


class MembershipTier:
    """A tier of membership servers over a :class:`TierLink`."""

    def __init__(
        self,
        link: TierLink,
        *,
        servers: int = 1,
        links: LinkCore,
        trace: Union[GcsTrace, Callable[[Optional[GroupName]], GcsTrace], None] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if servers < 1:
            raise ValueError("a membership tier needs at least one server")
        self.link = link
        # When given, every view formation is recorded as an
        # MbrshpFormEvent at the forming server - the raw material of the
        # MBRSHP-SRV-MONO / MBRSHP-SRV-FORK trace rules.  One trace is
        # the default group's; a ``group -> trace`` callable (None: the
        # default group) lets every named group audit on its own.
        self._trace_of = trace if callable(trace) else {None: trace}.get
        self._trace = self._trace_of(None)
        self._clock = clock if clock is not None else (lambda: 0.0)
        # The substrate's unified link core: the tier cuts and heals the
        # transport itself (one API for every substrate) instead of each
        # deployment reimplementing the partition wiring.
        self.links = links
        self.servers: Dict[ProcessId, MembershipServer] = {}
        self._initial_servers = servers
        # The durable half of the service, what a correct recovery reads:
        # the tier-wide round/counter floors, and the shared per-client
        # cid watermarks (cids stay locally unique and increasing even
        # when clients move between servers or a server recovers).
        self.store = WatermarkStore()
        self._cid_registry: Dict[ProcessId, StartChangeId] = {}
        self._home: Dict[ProcessId, ProcessId] = {}
        self._known: Set[ProcessId] = set()
        self._registered: Set[ProcessId] = set()
        # Clients cut off by a partition (as opposed to explicitly removed):
        # a heal brings exactly these back.
        self._detached: Set[ProcessId] = set()
        self._crashed: Set[ProcessId] = set()
        self.views_formed: List[View] = []  # the default group's
        self._seen_views: Set[View] = set()
        self._groups: Dict[GroupName, _Group] = {}
        self._groups_of: Dict[ProcessId, Set[GroupName]] = {}
        self.started = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _grow(self, count: int) -> None:
        """Create servers, each attached to the link, up to ``count``."""
        while len(self.servers) < count:
            sid = server_id(str(len(self.servers)))
            server = MembershipServer(
                sid,
                send=self._sender(sid),
                cid_registry=self._cid_registry,
                initial_counter=self.watermark(),
            )
            server.on_view_formed = lambda view, sid=sid: self._on_formed(sid, view)
            self.servers[sid] = server
            self.link.attach(sid, server.on_run)

    def _on_formed(self, sid: ProcessId, view: View) -> None:
        """A server's round completed: the tier's durability point.

        Runs at *every* co-forming server (so even a client-less server's
        round and counter reach the floors), records the view once, and
        emits the formation trace event the server fault-domain rules
        feed on.
        """
        server = self.servers[sid]
        self.store.observe(server.round, server.max_counter)
        if view not in self._seen_views:
            self._seen_views.add(view)
            self.views_formed.append(view)
        if self._trace is not None:
            self._trace.append(MbrshpFormEvent(self._clock(), sid, view))

    def watermark(self) -> int:
        """The highest view counter any server of the tier has issued.

        That is the durable store's floor: every formation raises it
        (:meth:`_on_formed`) and a server's counter starts at or under it,
        so the watermark survives every server of the tier crashing."""
        return self.store.counter_floor()

    def alive_servers(self) -> List[ProcessId]:
        """The non-crashed server ids, sorted."""
        return sorted(sid for sid, s in self.servers.items() if not s.crashed)

    def crashed_servers(self) -> List[ProcessId]:
        return sorted(sid for sid, s in self.servers.items() if s.crashed)

    def _sender(self, sid: ProcessId) -> Callable[[ProcessId, Any], None]:
        def send(dst: ProcessId, message: Any) -> None:
            server = self.servers.get(sid)
            if server is not None and server.crashed:
                return  # a dead server says nothing
            if server is not None:
                self.store.observe(server.round, server.max_counter)
            self.link.send(sid, (dst,), message)

        return send

    def _default_home(self, pid: ProcessId) -> ProcessId:
        del pid  # assignment is load-based, not identity-based
        return min(
            self.alive_servers(),
            key=lambda sid: (len(self.servers[sid].local_clients), sid),
        )

    # ------------------------------------------------------------------
    # client registry
    # ------------------------------------------------------------------

    def add_client(self, pid: ProcessId) -> None:
        """Introduce a client.  It joins views only once ``start`` or
        :meth:`set_members` actually registers it."""
        self._known.add(pid)

    def _live_home(self, pid: ProcessId) -> ProcessId:
        """The client's home server, re-picked if it crashed or is unset."""
        home = self._home.get(pid)
        if home is None or self.servers[home].crashed:
            home = self._default_home(pid)
        return home

    def _register(self, pid: ProcessId, *, trigger: bool = True) -> None:
        home = self._live_home(pid)
        self._home[pid] = home
        self._registered.add(pid)
        self._detached.discard(pid)
        self.servers[home].update_clients(add=(pid,), trigger=trigger)

    def active_members(self) -> FrozenSet[ProcessId]:
        return frozenset(self._registered - self._crashed)

    def start(self) -> None:
        """Create the initial servers, spread clients, run the first round."""
        self._grow(self._initial_servers)
        sids = sorted(self.servers)
        for index, pid in enumerate(sorted(self._known)):
            home = sids[index % len(sids)]
            self._home[pid] = home
            self._registered.add(pid)
            self.servers[home].update_clients(add=(pid,), trigger=False)
        self.started = True
        everyone = frozenset(self.servers)
        for sid in sids:
            self.servers[sid].activate(everyone)

    def set_members(self, members: Iterable[ProcessId]) -> bool:
        """Drive the registered client set to ``members`` (join + leave).

        Batched per server, so each affected server starts a single round.
        Returns whether anything changed (if not, no new view will form).
        """
        target = frozenset(members)
        unknown = target - self._known
        if unknown:
            raise ValueError(f"unknown clients {sorted(unknown)}; add_client them first")
        if not self.started:
            self.start()
        adds: Dict[ProcessId, List[ProcessId]] = {}
        removes: Dict[ProcessId, List[ProcessId]] = {}
        for pid in sorted(target - self._registered):
            home = self._live_home(pid)
            self._home[pid] = home
            self._registered.add(pid)
            self._detached.discard(pid)
            adds.setdefault(home, []).append(pid)
        for pid in sorted(self._registered - target):
            self._registered.discard(pid)
            self._detached.discard(pid)  # explicit leave, not a partition cut
            removes.setdefault(self._home[pid], []).append(pid)
        changed = False
        for sid in sorted(set(adds) | set(removes)):
            changed |= self.servers[sid].update_clients(
                add=adds.get(sid, ()), remove=removes.get(sid, ())
            )
        return changed

    def client_crashed(self, pid: ProcessId) -> List[View]:
        """Returns the views the process's named groups re-form."""
        self._crashed.add(pid)
        if pid in self._registered:
            self.servers[self._home[pid]].client_crashed(pid)
        return self._fan_out(pid, MembershipServer.client_crashed)

    def client_recovered(self, pid: ProcessId) -> List[View]:
        """Returns the views re-admitting the process to its named groups."""
        self._crashed.discard(pid)
        if pid in self._registered:
            self.servers[self._home[pid]].client_recovered(pid)
        elif pid in self._known:
            self._register(pid)
        return self._fan_out(pid, MembershipServer.client_recovered)

    # ------------------------------------------------------------------
    # named groups: one round machine each, at the owning server
    # ------------------------------------------------------------------

    def _place(self, group: GroupName, clients: Iterable[ProcessId] = ()) -> _Group:
        """(Re-)create ``group``'s round machine at its owner: the alive
        server of highest weight, counters above the group's durable floor."""
        if not self.servers:
            self._grow(self._initial_servers)
        sids = list(self.servers)
        alive = [index for index, sid in enumerate(sids) if not self.servers[sid].crashed]
        owner = sids[GroupShardMap(len(sids)).shard_of(group, among=alive)]
        state = self._groups.setdefault(group, _Group())

        def send(dst: ProcessId, message: Any) -> None:
            if not self.servers[owner].crashed:  # a dead server says nothing
                self.link.send(owner, (dst,), GroupEnvelope(group, message))

        def formed(view: View) -> None:
            self.store.observe_group(group, view.vid.counter)
            state.views.append(view)
            trace = self._trace_of(group)
            if trace is not None:
                trace.append(MbrshpFormEvent(self._clock(), owner, view))

        state.machine = MembershipServer(
            owner,
            send,
            cid_registry=state.cids,
            initial_counter=self.store.counter_floor(group),
        )
        state.machine.on_view_formed = formed
        self._admit(group, clients)
        return state

    def _admit(self, group: GroupName, clients: Iterable[ProcessId]) -> bool:
        """Register ``clients`` at ``group``'s machine; the crashed stay crashed."""
        return self._groups[group].machine.inherit_clients(
            clients, counter_floor=self.store.counter_floor(group), crashed=self._crashed
        )

    def set_group(self, group: GroupName, members: Iterable[ProcessId]) -> Optional[View]:
        """Drive ``group`` to exactly ``members`` with a single round at
        its owner; returns the view formed (a round with one server in
        its configuration forms synchronously), if any."""
        state = self._groups.get(group) or self._place(group)
        machine = state.machine
        target = frozenset(members)
        gone, new = sorted(machine.local_clients - target), sorted(target - machine.local_clients)
        for pid in gone:
            self._groups_of[pid].discard(group)
        for pid in new:
            self._groups_of.setdefault(pid, set()).add(group)
        formed = len(state.views)
        changed = machine.update_clients(remove=gone, trigger=False)
        changed |= self._admit(group, new)
        self._report(machine, machine.reachable, changed)
        return state.views[-1] if len(state.views) > formed else None

    def join(self, group: GroupName, pid: ProcessId) -> Optional[View]:
        return self.set_group(group, self.group_members(group) | {pid})

    def leave(self, group: GroupName, pid: ProcessId) -> Optional[View]:
        return self.set_group(group, self.group_members(group) - {pid})

    def group_members(self, group: GroupName) -> FrozenSet[ProcessId]:
        """The registered clients of ``group`` (crashed ones included)."""
        state = self._groups.get(group)
        return frozenset(state.machine.local_clients) if state else frozenset()

    def group_views(self, group: GroupName) -> List[View]:
        """Every view formed for ``group``, oldest first."""
        state = self._groups.get(group)
        return state.views if state else []

    def group_view(self, group: GroupName) -> Optional[View]:
        views = self.group_views(group)
        return views[-1] if views else None

    def owner_of(self, group: GroupName) -> Optional[ProcessId]:
        state = self._groups.get(group)
        return state.machine.sid if state else None

    def _fan_out(
        self, pid: ProcessId, event: Callable[[MembershipServer, ProcessId], None]
    ) -> List[View]:
        """A process-level event reaches exactly the machines of the
        process's groups - never the whole tier; returns what they form."""
        views: List[View] = []
        for group in sorted(self._groups_of.get(pid, ())):
            state = self._groups[group]
            formed = len(state.views)
            event(state.machine, pid)
            views.extend(state.views[formed:])
        return views

    # ------------------------------------------------------------------
    # the server fault domain
    # ------------------------------------------------------------------

    def crash_server(self, sid: Optional[ProcessId] = None) -> ProcessId:
        """Crash one membership server; its clients fail over.

        The server's round and counter raise the durable floors one last
        time, the server goes inert and is cut from the fabric, and the
        clients it hands over are
        rehomed to the surviving servers - floored by the
        tier watermark so no survivor can issue a counter the moved
        clients may already have seen.  Each named group it owned moves
        the same way: its machine is re-created at the survivor of
        highest weight, from the group's durable counter floor and the
        tier's cid registry.  Returns the crashed server id (default:
        the highest-numbered alive server).
        """
        alive = self.alive_servers()
        if sid is None:
            sid = alive[-1] if alive else None
        if sid not in self.servers:
            raise ValueError(f"unknown server {sid!r}")
        server = self.servers[sid]
        if server.crashed:
            raise ValueError(f"server {sid} is already crashed")
        if len(alive) < 2:
            raise ValueError("the last alive server cannot crash")
        self.store.observe(server.round, server.max_counter)
        clients, crashed_clients = server.crash()
        self.links.restrict(sid, [])
        survivors = frozenset(self.alive_servers())
        floor = self.watermark()
        targets = sorted(survivors)
        loads = {t: len(self.servers[t].local_clients) for t in targets}
        adds: Dict[ProcessId, List[ProcessId]] = {}
        for pid in clients:
            home = min(targets, key=lambda t: (loads[t], t))
            loads[home] += 1
            self._home[pid] = home
            adds.setdefault(home, []).append(pid)
        crashed = self._crashed.union(crashed_clients)
        for tsid in targets:
            self.servers[tsid].inherit_clients(
                adds.get(tsid, ()), counter_floor=floor, crashed=crashed
            )
        for tsid in targets:
            self._report(self.servers[tsid], survivors, bool(adds.get(tsid)))
        for group in sorted(g for g, s in self._groups.items() if s.machine.sid == sid):
            clients, _ = self._groups[group].machine.crash()
            self._place(group, clients).machine.activate(())
        return sid

    @staticmethod
    def _report(server: MembershipServer, reachable: FrozenSet[ProcessId], changed: bool) -> None:
        """Failure-detector report to ``server`` such that one round
        covers it: if reachability did not change (the server already
        stood alone, the dead peer was already cut off) but the client
        registry did, the new clients still need their round."""
        if not server.active:
            server.activate(reachable)
            return
        before = server.reachable
        server.set_reachable(reachable)
        if before == server.reachable and changed:
            server.begin_round(server.round + 1)

    def recover_server(self, sid: ProcessId) -> None:
        """Recover a crashed server from the durable store.

        The server comes back on the store's round and counter floors and
        nothing else (cids come from the shared registry), so the first
        round it starts exceeds every pre-crash round - the peers *adopt*
        it (a rejoin) instead of racing a forked server with forgotten
        state.
        Its former clients stay where they failed over to, and so do
        its former named groups: moving a group off a *live* server would
        let the old owner's in-flight view notice overtake the new
        owner's start_change (a network cannot cancel what is on the wire).
        """
        server = self.servers.get(sid)
        if server is None:
            raise ValueError(f"unknown server {sid!r}")
        if not server.crashed:
            raise ValueError(f"server {sid} is not crashed")
        server.restore(
            round_floor=self.store.round_floor(),
            counter_floor=self.store.counter_floor(),
        )
        self.links.restrict(sid, None)
        alive = frozenset(self.alive_servers())
        for tsid in sorted(alive):
            self.servers[tsid].set_reachable(alive)

    def clients_of(self, sids: Iterable[ProcessId]) -> FrozenSet[ProcessId]:
        """The active clients homed to the given servers."""
        group = frozenset(sids)
        return frozenset(
            pid
            for pid in self._registered
            if self._home.get(pid) in group and pid not in self._crashed
        )

    def partition_servers(
        self, groups: Iterable[Iterable[ProcessId]]
    ) -> List[FrozenSet[ProcessId]]:
        """Split the *server tier* into components.

        Clients follow their home server: each component is one server
        group plus the clients homed to it, and each forms its own view.
        Alive servers in no listed group become singleton components;
        :meth:`heal` reunites everything.  Returns the effective server
        groups (listed plus singletons), in order.
        """
        alive = set(self.alive_servers())
        group_sets = [frozenset(g) for g in groups if g]
        seen: Set[ProcessId] = set()
        for group in group_sets:
            unknown = group - alive
            if unknown:
                raise ValueError(f"not alive servers: {sorted(unknown)}")
            if group & seen:
                raise ValueError("overlapping server groups")
            seen |= group
        group_sets.extend(frozenset({sid}) for sid in sorted(alive - seen))
        components: List[List[ProcessId]] = []
        for group in group_sets:
            members = sorted(group) + sorted(
                pid for pid in self._registered if self._home.get(pid) in group
            )
            components.append(members)
        components.extend([sid] for sid in self.crashed_servers())
        self.links.partition(components)
        for group in group_sets:
            for sid in sorted(group):
                self.servers[sid].set_reachable(group)
        return group_sets

    # ------------------------------------------------------------------
    # topology (the deployment's failure-detector input)
    # ------------------------------------------------------------------

    def plan_partition(self, groups: Iterable[Iterable[ProcessId]]) -> PartitionPlan:
        """Assign one server per group; compute the transport components.

        When the tier is short of alive servers it grows itself (crashed
        servers hold no partition group).  Clients in no group are cut
        off entirely (singleton components).
        """
        group_sets = [frozenset(g) for g in groups]
        self._grow(len(group_sets) + len(self.crashed_servers()))
        sids = self.alive_servers()
        assignment = {sids[i]: group_sets[i] for i in range(len(group_sets))}
        components: List[List[ProcessId]] = [
            sorted(group) + [sids[i]] for i, group in enumerate(group_sets)
        ]
        components.extend([sid] for sid in sids[len(group_sets):])
        components.extend([sid] for sid in self.crashed_servers())
        listed: Set[ProcessId] = set().union(*group_sets) if group_sets else set()
        components.extend([pid] for pid in sorted(self._registered - listed))
        return PartitionPlan(group_sets, assignment, components)

    def apply_partition(self, plan: PartitionPlan) -> None:
        """Cut the transport and announce a planned partition.

        The tier splits the fabric's link core along ``plan.components``
        itself before moving any client - one partition surface for
        every substrate.  Every notice a server sends from here on stays
        within its own component.
        """
        self.links.partition(plan.components)
        snapshot = self.watermark()
        listed: Set[ProcessId] = set().union(*plan.groups) if plan.groups else set()
        adds: Dict[ProcessId, List[ProcessId]] = {}
        removes: Dict[ProcessId, List[ProcessId]] = {}
        for sid, group in plan.assignment.items():
            for pid in sorted(group):
                old = self._home.get(pid)
                if old == sid and pid in self._registered:
                    continue
                if pid in self._registered and old is not None and old != sid:
                    removes.setdefault(old, []).append(pid)
                self._home[pid] = sid
                self._registered.add(pid)
                adds.setdefault(sid, []).append(pid)
        for pid in sorted(self._registered - listed):
            # Cut off from every server: it keeps its current view and
            # hears nothing until the next heal or reconfiguration.
            self._registered.discard(pid)
            self._detached.add(pid)
            removes.setdefault(self._home[pid], []).append(pid)
        for sid in sorted(self.servers):
            server = self.servers[sid]
            changed = server.update_clients(remove=removes.get(sid, ()), trigger=False)
            changed |= server.inherit_clients(
                adds.get(sid, ()), counter_floor=snapshot, crashed=self._crashed
            )
            self._report(server, frozenset({sid}), changed)

    def heal(self) -> None:
        """Reunite the tier: all servers reachable, cut-off clients back.

        The transport's link core is healed here too (all components
        merged, all restrictions lifted)."""
        self.links.heal()
        for sid in self.crashed_servers():
            # Healing the fabric must not resurrect dead servers.
            self.links.restrict(sid, [])
        everyone = frozenset(self.alive_servers())
        adds: Dict[ProcessId, List[ProcessId]] = {}
        for pid in sorted(self._detached - self._crashed):
            home = self._live_home(pid)
            self._home[pid] = home
            self._registered.add(pid)
            adds.setdefault(home, []).append(pid)
        self._detached -= self._registered
        for sid in sorted(everyone):
            server = self.servers[sid]
            changed = server.update_clients(add=adds.get(sid, ()), trigger=False)
            self._report(server, everyone, changed)

    def __repr__(self) -> str:
        return (
            f"<MembershipTier servers={sorted(self.servers)} "
            f"clients={sorted(self._registered)} views={len(self.views_formed)}>"
        )
