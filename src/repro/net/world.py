"""The complete simulated deployment (the paper's Figure 1, executable).

``SimWorld`` assembles, on one discrete-event clock:

* a :class:`~repro.net.network.SimNetwork` with a latency model and
  partition support;
* one :class:`SimNode` per client process - the
  :class:`~repro.core.runner.EndpointRunner` driving a GCS end-point
  automaton reactively over the network's CO_RFIFO service;
* a membership service behind one control surface: either the
  centralized :class:`~repro.membership.oracle.OracleMembership`
  (scripted timing, for controlled experiments) or, with ``servers=N``, a
  :class:`~repro.membership.tier.MembershipTier` of crashable
  :class:`~repro.membership.server.MembershipServer` processes running
  real agreement over the simulated network (the full client-server
  architecture, the same tier the asyncio and TCP clusters run).  The
  world hands the tier its own :meth:`~SimWorld.attach` /
  :meth:`~SimWorld.send` pair, as a runtime cluster hands it its fabric;
  ``send`` is one :meth:`SimNetwork.multicast
  <repro.net.network.SimNetwork.multicast>` per multicast - admitted
  once, each copy joining its arrival instant's one event.

The network hands each process one run per arrival instant (every copy
that reaches it then, over any link), so a default-group process's
handler is its node's :meth:`~repro.core.runner.EndpointRunner.on_run`: the
n-1 ``SyncMsg``s of a view round, or the n-1 ``ViewMsg`` + ``AppMsg``
pairs of the view's first multicasts, that land together cost the
end-point one drain, not n-1.

All externally observable behaviour lands in a single time-stamped
:class:`~repro.checking.events.GcsTrace`, so the property checkers of
:mod:`repro.checking` apply to simulated runs unchanged.

A group is a dimension of this world, not a second one (paper Section 1:
scalable "in the number of groups").  Everything above is the *default*
group; a process may also :meth:`~SimWorld.join` any number of *named*
groups, each one more :class:`SimNode` on the process's one network
registration - its traffic inside a :class:`GroupEnvelope`, its reliable
set a share of the process's (:meth:`~SimWorld.set_reliable`) - with
membership from the same tier - one more round machine at the group's
owning server - and a trace of its own (:meth:`~SimWorld.trace_of`), so
every group audits alone.  The first named group on a process swaps
the world's envelope router in as its handler; the router splits each
run into one run per group end-point it touches.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Type

from repro.chaos.faults import FaultInjector
from repro.checking.events import GcsTrace
from repro.core.forwarding import ForwardingStrategy
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.runner import EndpointRunner
from repro.errors import SettleTimeoutError
from repro.links import Run
from repro.membership.oracle import OracleMembership
from repro.membership.protocol import GroupEnvelope
from repro.membership.tier import MembershipTier
from repro.net.latency import LatencyModel
from repro.net.network import SimNetwork
from repro.net.simclock import EventScheduler
from repro.scale.sharding import GroupName
from repro.types import ProcessId, View


class SimNode(EndpointRunner):
    """One end-point of a client process: the default group's (``group``
    None) sends bare, a named group's inside a :class:`GroupEnvelope` and
    into the group's own trace.  The process is on the network once,
    shared by all its groups: crashing it is :meth:`SimWorld.crash`'s
    job, not one end-point's."""

    def __init__(
        self,
        pid: ProcessId,
        world: "SimWorld",
        endpoint: GcsEndpoint,
        group: Optional[GroupName] = None,
    ) -> None:
        self.world = world
        if group is None:
            send_wire = partial(world.send, pid)
        else:
            send_wire = lambda targets, message: world.send(
                pid, targets, GroupEnvelope(group, message)
            )
        super().__init__(
            endpoint,
            send_wire=send_wire,
            set_reliable=partial(world.set_reliable, pid, group=group),
            clock=lambda: world.clock.now,
            trace=world.trace_of(group),
            fastpath=world.fastpath,
        )

    def send(self, payload: Any) -> None:
        """Application-level multicast to the current view."""
        self.app_send(payload)


class SimWorld:
    """A simulated cluster of GCS clients plus a membership service."""

    def __init__(
        self,
        *,
        latency: Optional[LatencyModel] = None,
        round_duration: float = 1.0,
        servers: Optional[int] = None,
        forwarding: Optional[ForwardingStrategy] = None,
        endpoint_cls: Type[GcsEndpoint] = GcsEndpoint,
        gc_views: bool = True,
        strict: bool = False,
        compact_syncs: bool = False,
        ack_gc_interval: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
        fastpath: bool = True,
    ) -> None:
        self.clock = EventScheduler()
        self.network = SimNetwork(self.clock, latency, faults)
        self.links = self.network.core  # the unified LinkCore
        # False forces every node through the general engine - the
        # differential tests run both and compare traces.
        self.fastpath = fastpath
        # One trace per group; the default group's (None) is .trace.
        self._traces: Dict[Optional[GroupName], GcsTrace] = defaultdict(GcsTrace)
        self.trace = self._traces[None]
        # What each client process's groups ask to keep reliable (None:
        # the default group); the network keeps the process reliable to
        # their union - the safe direction of the CO_RFIFO contract.
        self._shares: Dict[ProcessId, Dict[Optional[GroupName], FrozenSet[ProcessId]]] = {}
        self.nodes: Dict[ProcessId, SimNode] = {}  # the default group's
        self.group_nodes: Dict[GroupName, Dict[ProcessId, SimNode]] = {}
        self._endpoint_cls = endpoint_cls
        self._endpoint_kwargs: Dict[str, Any] = {"gc_views": gc_views, "strict": strict}
        if forwarding is not None:
            self._endpoint_kwargs["forwarding"] = forwarding
        if compact_syncs:
            self._endpoint_kwargs["compact_syncs"] = True
        if ack_gc_interval is not None:
            self._endpoint_kwargs["ack_gc_interval"] = ack_gc_interval
        # One membership service, two issuers: the scripted oracle, or -
        # asking for servers is asking for the tier that runs them - the
        # same MembershipTier (durable watermark store, crashable servers)
        # the asyncio and TCP clusters run, over the simulated network;
        # the servers are also what named groups are placed on.
        self.oracle: Optional[OracleMembership] = None
        self.tier: Optional[MembershipTier] = None
        if servers is None:
            self.membership = self.oracle = OracleMembership(
                self.clock,
                # No network sender: the oracle is not a process.
                lambda pid, notice: self.nodes[pid].dispatch(None, notice),
                self.links,
                round_duration=round_duration,
            )
        else:
            self.membership = self.tier = MembershipTier(
                self,
                servers=servers,
                links=self.links,
                trace=self.trace_of,
                clock=lambda: self.clock.now,
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_process(self, pid: ProcessId) -> None:
        """Create a client process on the network, no end-point yet."""
        if pid in self._shares:
            raise ValueError(f"duplicate process {pid!r}")
        self._shares[pid] = {}
        self.network.register(pid, partial(self._route, pid))

    def add_processes(self, pids: Iterable[ProcessId]) -> None:
        for pid in pids:
            self.add_process(pid)

    def _host(self, pid: ProcessId, group: Optional[GroupName] = None) -> SimNode:
        """One more end-point of ``pid``, in ``group``."""
        return SimNode(pid, self, self._endpoint_cls(pid, **self._endpoint_kwargs), group)

    def add_node(self, pid: ProcessId) -> SimNode:
        """Create a client process with a default-group end-point.

        It joins views only once :meth:`start` or :meth:`set_members`
        (or, on the oracle, any fault-triggered view) takes it in.
        """
        self.add_process(pid)
        node = self.nodes[pid] = self._host(pid)
        self.network.register(pid, node.on_run)  # no envelope to route yet
        self.membership.add_client(pid)
        return node

    def add_nodes(self, pids: Iterable[ProcessId]) -> List[SimNode]:
        return [self.add_node(pid) for pid in pids]

    # ------------------------------------------------------------------
    # named groups (tier mode): join / leave reconfigure that group only,
    # at the one server owning it
    # ------------------------------------------------------------------

    def _host_in(self, group: GroupName, pid: ProcessId) -> None:
        """Give ``pid`` an end-point in ``group`` (once)."""
        if self.tier is None:
            raise ValueError(
                "named groups run on the membership-server tier "
                "(SimWorld(servers=N)); the oracle serves the default group only"
            )
        nodes = self.group_nodes.setdefault(group, {})
        if pid not in nodes:
            if pid in self.nodes and not any(pid in hosted for hosted in self.group_nodes.values()):
                self.network.register(pid, partial(self._route, pid))
            nodes[pid] = self._host(pid, group)

    def join(self, pid: ProcessId, group: GroupName) -> None:
        self._host_in(group, pid)
        self.tier.join(group, pid)

    def leave(self, pid: ProcessId, group: GroupName) -> None:
        self.tier.leave(group, pid)

    def set_group(self, group: GroupName, members: Iterable[ProcessId]) -> Optional[View]:
        """Drive ``group`` to exactly ``members`` with a single round."""
        members = list(members)
        for pid in members:
            self._host_in(group, pid)
        return self.tier.set_group(group, members)

    def group_view(self, group: GroupName) -> Optional[View]:
        return self.tier.group_view(group)

    def groups_of(self, pid: ProcessId) -> List[GroupName]:
        """The named groups ``pid`` has an end-point in, sorted."""
        return sorted(group for group, nodes in self.group_nodes.items() if pid in nodes)

    def trace_of(self, group: Optional[GroupName]) -> GcsTrace:
        """``group``'s own trace (``None``: the default group's)."""
        return self._traces[group]

    def settled(self, group: GroupName) -> bool:
        """Every member of ``group``'s latest view has installed it."""
        view = self.group_view(group)
        return view is not None and self.all_in_view(view, group)

    # ------------------------------------------------------------------
    # the processes on the network: every end-point's and the tier's
    # attach / send, and each process's reliable set
    # ------------------------------------------------------------------

    def attach(self, pid: ProcessId, handler: Callable[[Run], None]) -> None:
        """Put ``pid`` on the network with ``handler`` as its inbox (how
        the tier hosts a membership server): one run per arrival instant."""
        self.network.register(pid, handler)

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        """FIFO multicast ``message`` from ``src`` to every other process
        in ``targets``.

        Fan-out is in sorted order: ``targets`` is usually a frozenset,
        and iterating it directly would make same-instant delivery order
        depend on the interpreter's hash seed (traces must replay
        byte-for-byte across processes).
        """
        self.network.multicast(src, [dst for dst in sorted(targets) if dst != src], message)

    def set_reliable(
        self, pid: ProcessId, targets: Iterable[ProcessId], group: Optional[GroupName] = None
    ) -> None:
        """Record ``group``'s reliable set at ``pid``; the network may then
        drop the suffixes to peers no group of ``pid`` keeps reliable."""
        shares = self._shares[pid]
        shares[group] = frozenset(targets)
        self.network.set_reliable(pid, frozenset().union(*shares.values()))

    def _route(self, pid: ProcessId, run: Run) -> None:
        """Hand one instant's arrivals to ``pid``'s end-points, each in its
        group; an envelope for a group ``pid`` has no end-point in is
        dropped.  Each end-point gets its share as one run of its own
        (:meth:`~repro.core.runner.EndpointRunner.on_run`), so it drains once
        for the instant; end-points go in the order the run first reaches
        them."""
        shares: Dict[SimNode, List[Tuple[ProcessId, List[Any]]]] = {}
        for src, payloads in run:
            for message in payloads:
                if isinstance(message, GroupEnvelope):
                    node = self.group_nodes.get(message.group, {}).get(pid)
                    message = message.message
                else:
                    node = self.nodes.get(pid)
                if node is None:
                    continue
                share = shares.get(node)
                if share is None:
                    shares[node] = [(src, [message])]
                elif share[-1][0] == src:
                    share[-1][1].append(message)
                else:
                    share.append((src, [message]))
        for node, share in shares.items():
            node.on_run(share)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Kick off the initial view formation for all registered clients."""
        self.membership.start()

    def set_members(self, members: Iterable[ProcessId]) -> bool:
        """Drive the default group to ``members``; False if no view will form."""
        return self.membership.set_members(members)

    @property
    def views_formed(self) -> List[View]:
        """Views the membership service has formed for the default group."""
        return self.membership.views_formed

    def run(self, max_events: Optional[int] = None) -> int:
        return self.clock.run(max_events)

    def settle(self, max_events: int = 2_000_000) -> int:
        """Run the clock until no events remain; bounded, never hangs.

        The discrete-event analogue of the runtime clusters' quiescence
        waits: raises :class:`SettleTimeoutError` if the event queue is
        still non-empty after ``max_events`` steps (a livelocked
        protocol), instead of spinning forever.  An empty queue is the
        settle condition here; the link core's in-flight ledger must
        agree with it, or the settle raises too: an instant's event that
        fired or was cancelled with copies still counted in flight is a
        leak the empty queue would hide.
        """
        executed = self.clock.run(max_events)
        remaining = self.clock.pending()
        if remaining:
            raise SettleTimeoutError(
                f"simulation still has {remaining} pending event(s) "
                f"after {executed} steps at t={self.clock.now:.3f}; "
                f"{self.links.describe_stall()}"
            )
        if self.links.in_flight:
            raise SettleTimeoutError(
                f"simulation settled after {executed} steps at t={self.clock.now:.3f} "
                f"with {self.links.in_flight} cop(ies) still in flight; "
                f"{self.links.describe_stall()}"
            )
        return executed

    def run_until(self, time: float) -> int:
        return self.clock.run_until(time)

    def now(self) -> float:
        return self.clock.now

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def partition(self, groups: Iterable[Iterable[ProcessId]]) -> None:
        """Split the client processes into groups, one view each.

        The membership service cuts the shared link core itself: the
        oracle along the groups, the tier along its computed components
        (each group plus the server it assigns).  To split along the
        server tier instead, use ``tier.partition_servers``; to cut links
        with no view formed, ``links.partition``.
        """
        clients = [[pid for pid in group if pid in self.nodes] for group in groups]
        plan = self.membership.plan_partition([group for group in clients if group])
        self.membership.apply_partition(plan)

    def heal(self) -> None:
        self.membership.heal()  # heals the network's link core too

    def crash_process(self, pid: ProcessId) -> None:
        """The host half of a crash: every group's end-point, then the
        process on the network once."""
        for node in self._nodes_of(pid):
            node.crash()
        self._shares[pid].clear()
        self.network.crash(pid)

    def recover_process(self, pid: ProcessId) -> None:
        self.network.recover(pid)
        for node in self._nodes_of(pid):
            node.recover()

    def crash(self, pid: ProcessId) -> List[View]:
        """Crash the process and tell the membership service.

        Returns the views its named groups re-form - only the crashed
        process's own groups, at only the servers owning them.
        """
        self.crash_process(pid)
        return self.membership.client_crashed(pid)

    def recover(self, pid: ProcessId) -> None:
        """Recover the process; each group's service forms the
        re-admitting view."""
        self.recover_process(pid)
        self.membership.client_recovered(pid)

    def _nodes_of(self, pid: ProcessId) -> List[SimNode]:
        """Every end-point of ``pid``: the default group's, then its named groups'."""
        default = [self.nodes[pid]] if pid in self.nodes else []
        return default + [self.group_nodes[g][pid] for g in self.groups_of(pid)]

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def node(self, pid: ProcessId, group: Optional[GroupName] = None) -> SimNode:
        return (self.nodes if group is None else self.group_nodes[group])[pid]

    def current_views(self) -> Dict[ProcessId, View]:
        return {pid: node.endpoint.current_view for pid, node in self.nodes.items()}

    def all_in_view(self, view: View, group: Optional[GroupName] = None) -> bool:
        return all(self.node(pid, group).current_view == view for pid in view.members)

    def message_counts(self) -> Dict[str, int]:
        return self.links.totals()
