"""The substrate-agnostic deployment contract.

A :class:`Deployment` is the paper's Figure 1 seen from the outside: a
set of GCS end-points over *some* substrate, with membership changes and
fault injection as environment inputs and one :class:`GcsTrace` of
everything observable.  Scenario scripts, experiments and integration
tests are written against this class only - the same coroutine runs over
the discrete-event simulator, in-process asyncio queues, or real TCP
sockets, and :meth:`check` audits any of them with the same property
checkers.

The control plane is stated here, once.  Every membership or fault
operation is *inject*, then *wait*: validate the arguments, apply the
change to the hosts and to the membership service (synchronous and the
same on every substrate - :attr:`Deployment.membership` is the scripted
oracle or the server tier behind one control surface), then await the
views it must produce through :meth:`Deployment.await_members`, the one
thing a substrate owes.  Illegal input is a :class:`ValueError` raised
before anything is touched.

A new backend is one subclass hosting each end-point as an
:class:`~repro.core.runner.EndpointRunner` (a node subclass of its own)
and supplying the lifecycle, the clock and that wait; every scenario in
:mod:`repro.deploy.scenarios` (and every parametrized integration test)
runs on it unchanged.  The runtime
:class:`~repro.runtime.cluster.Cluster` is that subclass for every
fabric, :class:`~repro.deploy.sim.SimDeployment` the one over
:class:`~repro.net.world.SimWorld`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
)

from repro.checking.events import GcsTrace
from repro.checking.refinement import TraceSkeleton, extract_skeleton
from repro.checking.verdict import Verdict, run_verdict
from repro.core.runner import EndpointRunner
from repro.links import LinkCore
from repro.types import VID_ZERO, ProcessId, View

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.membership.tier import MembershipTier


class Membership(Protocol):
    """The control surface a deployment drives its membership service
    through - :class:`~repro.membership.oracle.OracleMembership` and
    :class:`~repro.membership.tier.MembershipTier` alike.  Every call is
    synchronous: it injects the change (cutting or healing the shared
    :class:`~repro.links.LinkCore` itself where the topology moves) and
    returns; the views it causes arrive as notices, later."""

    #: The default group's views, oldest first.
    views_formed: List[View]
    #: Membership-server ids; empty for a service that runs none.
    servers: Collection[ProcessId]

    def add_client(self, pid: ProcessId) -> None: ...
    def start(self) -> None: ...
    def set_members(self, members: Iterable[ProcessId]) -> bool: ...
    def plan_partition(self, groups: Iterable[Iterable[ProcessId]]) -> Any: ...
    def apply_partition(self, plan: Any) -> None: ...
    def heal(self) -> None: ...
    def client_crashed(self, pid: ProcessId) -> List[View]: ...
    def client_recovered(self, pid: ProcessId) -> List[View]: ...
    def active_members(self) -> FrozenSet[ProcessId]: ...


class Deployment(ABC):
    """One deployed group of GCS end-points over some substrate."""

    #: Short substrate name ("sim", "async", "tcp"), for display and
    #: parametrized test ids.
    name: str = "abstract"

    #: The unconditional trace of every observable event so far.
    trace: GcsTrace

    #: The substrate's unified :class:`~repro.links.LinkCore`: one
    #: partition matrix, fault pipeline and counter set per deployment.
    links: LinkCore

    #: pid -> node (a runner), one shape on every substrate.  With
    #: :meth:`schedule` and :meth:`now`, the seam cross-substrate tools
    #: (overlay, soak, experiments) work through: the nodes, a timer, a
    #: clock.
    nodes: Mapping[ProcessId, EndpointRunner]

    #: One model time unit in this substrate's own clock - what chaos
    #: scales fault latencies by, so timers and faults agree.
    time_scale: float

    #: The membership service: the scripted oracle or the server tier.
    membership: Membership

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @abstractmethod
    async def setup(self, pids: Iterable[ProcessId]) -> View:
        """Create the end-points and form the initial view of all of them."""

    @abstractmethod
    async def close(self) -> None:
        """Tear the substrate down (tasks, sockets, ...)."""

    async def __aenter__(self) -> "Deployment":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    @abstractmethod
    async def send(self, pid: ProcessId, payload: Any) -> None:
        """Multicast ``payload`` from ``pid`` to its current view."""

    @abstractmethod
    async def settle(self) -> None:
        """Run until quiescent; raises SettleTimeoutError if it cannot."""

    @abstractmethod
    async def await_members(
        self, members: FrozenSet[ProcessId], *, min_counter: int = 0
    ) -> View:
        """Wait until ``members`` share one installed view of exactly
        themselves, its counter at least ``min_counter``; return it.
        Raises SettleTimeoutError if that never happens."""

    def common_view(self, members: FrozenSet[ProcessId], min_counter: int = 0) -> Optional[View]:
        """The predicate :meth:`await_members` waits for: the one view
        all of ``members`` have installed, or None.  ``min_counter``
        demands a *fresh* view - server faults re-form a view of unchanged
        membership, so matching members alone would accept the stale one."""
        if not members:
            raise ValueError("empty member set")
        views = [self.nodes[pid].current_view for pid in members]
        first = views[0]
        fresh = first.vid != VID_ZERO and first.vid.counter >= min_counter
        if fresh and first.members == members and all(view == first for view in views):
            return first
        return None

    def _crash_host(self, pid: ProcessId) -> None:
        """The host half of :meth:`crash`."""
        self.nodes[pid].crash()

    def _recover_host(self, pid: ProcessId) -> None:
        self.nodes[pid].recover()

    # ------------------------------------------------------------------
    # membership and client faults
    # ------------------------------------------------------------------

    def _known(self, pids: Iterable[ProcessId]) -> FrozenSet[ProcessId]:
        """``pids`` as a set: non-empty, every one an end-point here."""
        members = frozenset(pids)
        unknown = members - self.nodes.keys()
        if unknown:
            raise ValueError(f"unknown processes {sorted(unknown)}")
        if not members:
            raise ValueError("empty member set")
        return members

    def _live(self, members: FrozenSet[ProcessId]) -> FrozenSet[ProcessId]:
        return frozenset(pid for pid in members if not self.nodes[pid].crashed)

    async def _await_active(self, min_counter: int = 0) -> Optional[View]:
        """The view of everyone the membership service counts in, if anyone."""
        members = self.membership.active_members()
        return await self.await_members(members, min_counter=min_counter) if members else None

    async def reconfigure(self, members: Iterable[ProcessId]) -> View:
        """Change the membership to ``members``; return the view its live
        members installed."""
        member_set = self._known(members)
        self.membership.set_members(member_set)
        return await self.await_members(self._live(member_set))

    async def partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[View]:
        """Split the network, one view per group; return the views in
        group order (crashed members hold none, an all-crashed group is
        skipped)."""
        group_sets = [self._known(group) for group in groups]
        if sum(map(len, group_sets)) != len(frozenset().union(*group_sets)):
            raise ValueError(f"overlapping partition groups {[sorted(g) for g in group_sets]}")
        membership = self.membership
        membership.apply_partition(membership.plan_partition(group_sets))
        live = [self._live(group) for group in group_sets]
        return [await self.await_members(group) for group in live if group]

    async def heal(self) -> Optional[View]:
        """Reunite the network; return the merged view."""
        self.membership.heal()
        return await self._await_active()

    async def crash(self, pid: ProcessId) -> None:
        """Crash the end-point ``pid`` (Section 8); the survivors re-form."""
        self._known([pid])
        if self.nodes[pid].crashed:
            raise ValueError(f"process {pid!r} is already crashed")
        self._crash_host(pid)
        self.membership.client_crashed(pid)
        await self._await_active()

    async def recover(self, pid: ProcessId) -> Optional[View]:
        """Recover ``pid``; return the view re-admitting it."""
        self._known([pid])
        if not self.nodes[pid].crashed:
            raise ValueError(f"process {pid!r} is not crashed")
        self._recover_host(pid)
        self.membership.client_recovered(pid)
        return await self._await_active()

    # ------------------------------------------------------------------
    # the server fault domain (deployments whose membership runs servers)
    # ------------------------------------------------------------------

    def server_ids(self) -> List[ProcessId]:
        """Membership-server ids, sorted; empty when the deployment runs
        an infallible membership (the paper's Section 8 assumption)."""
        return sorted(self.membership.servers)

    def _tier(self) -> "MembershipTier":
        if not self.membership.servers:
            raise ValueError(f"this {self.name} deployment runs no membership servers")
        return self.membership  # only the tier runs servers

    async def server_crash(self, sid: Optional[ProcessId] = None) -> ProcessId:
        """Crash a membership server (default: the highest alive); wait
        for the failover view; return the crashed id."""
        tier = self._tier()
        fresh = tier.watermark() + 1
        sid = tier.crash_server(sid)
        await self._await_active(fresh)
        return sid

    async def server_recover(self, sid: ProcessId) -> Optional[View]:
        """Recover a crashed server from the durable store; return its
        rejoin view."""
        tier = self._tier()
        fresh = tier.watermark() + 1
        tier.recover_server(sid)
        return await self._await_active(fresh)

    async def server_partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[View]:
        """Partition the server tier, clients following their home
        server; return one view per component that has clients."""
        tier = self._tier()
        fresh = tier.watermark() + 1
        views = []
        for group in tier.partition_servers(groups):
            members = tier.clients_of(group)
            if members:
                views.append(await self.await_members(members, min_counter=fresh))
        return views

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def link_totals(self) -> Dict[str, int]:
        """Per-kind wire-message counters (uniform across substrates)."""
        return self.links.totals()

    @abstractmethod
    def schedule(self, delay: float, callback: Callable[[], None]) -> object:
        """Run ``callback`` ``delay`` model time units from now."""

    @abstractmethod
    def now(self) -> float:
        """The substrate's clock: virtual time on the simulator,
        monotonic wall seconds on the runtimes."""

    def processes(self) -> List[ProcessId]:
        """All end-point ids, sorted."""
        return sorted(self.nodes)

    def current_view(self, pid: ProcessId) -> View:
        """The view currently installed at ``pid``."""
        return self.nodes[pid].current_view

    def delivered(self, pid: ProcessId) -> List[Tuple[ProcessId, Any]]:
        """Everything delivered to ``pid``'s application, in order."""
        return list(self.nodes[pid].delivered)

    def views(self, pid: ProcessId) -> List[View]:
        """Every view installed at ``pid``, in order."""
        return [view for view, _transitional in self.nodes[pid].views]

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def check(
        self,
        *,
        final_view: Optional[View] = None,
        golden: Optional[TraceSkeleton] = None,
    ) -> None:
        """Audit the trace: full safety battery + MBRSHP conformance.

        With ``final_view`` given (a stabilised run), liveness
        (Property 4.2) is checked against it too; with a ``golden``
        skeleton (recorded on another substrate via :meth:`skeleton`),
        the run must also reproduce that execution structure.  Raises
        :class:`~repro.errors.SpecificationViolation` carrying the
        primary violation's code and witness index.
        """
        self.verdict(final_view=final_view, golden=golden).raise_for()

    def verdict(
        self,
        *,
        final_view: Optional[View] = None,
        golden: Optional[TraceSkeleton] = None,
    ) -> Verdict:
        """The audit behind :meth:`check`, as a structured verdict."""
        return run_verdict(
            self.trace, self.processes(), final_view=final_view, golden=golden
        )

    def skeleton(self) -> TraceSkeleton:
        """The golden-trace abstraction of this run (cross-substrate form)."""
        return extract_skeleton(self.trace)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} nodes={self.processes()}>"
