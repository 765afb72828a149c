"""The substrate-agnostic deployment contract.

A :class:`Deployment` is the paper's Figure 1 seen from the outside: a
set of GCS end-points over *some* substrate, with membership changes and
fault injection as environment inputs and one :class:`GcsTrace` of
everything observable.  Scenario scripts, experiments and integration
tests are written against this class only - the same coroutine runs over
the discrete-event simulator, in-process asyncio queues, or real TCP
sockets, and :meth:`check` audits any of them with the same property
checkers.

A new backend is one subclass hosting each end-point in an
:class:`~repro.core.host.EndpointHost`, and every scenario in
:mod:`repro.deploy.scenarios` (and every parametrized integration test)
runs on it unchanged.  The runtime :class:`~repro.runtime.cluster.Cluster`
is that subclass for every fabric; :class:`~repro.deploy.sim.SimDeployment`
adapts the synchronous :class:`~repro.net.world.SimWorld`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.chaos.runner import TIME_SCALES
from repro.checking.events import GcsTrace
from repro.checking.refinement import TraceSkeleton, extract_skeleton
from repro.checking.verdict import Verdict, run_verdict
from repro.core.host import EndpointHost
from repro.links import LinkCore
from repro.types import ProcessId, View


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

    #: pid -> host, one shape on every substrate.  With :meth:`schedule`
    #: and :meth:`now`, the seam cross-substrate tools (overlay, soak,
    #: experiments) work through: the hosts, a timer, a clock.
    nodes: Mapping[ProcessId, EndpointHost]

    @property
    def time_scale(self) -> float:
        """One model time unit in this substrate's own clock - the table
        chaos scales fault latencies by, so timers and faults agree."""
        return TIME_SCALES[self.name]

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
    async def reconfigure(self, members: Iterable[ProcessId]) -> View:
        """Change the membership to ``members``; return the installed view."""

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    @abstractmethod
    async def partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[View]:
        """Split the network; return the per-group views, in group order."""

    @abstractmethod
    async def heal(self) -> View:
        """Reunite the network; return the merged view."""

    @abstractmethod
    async def crash(self, pid: ProcessId) -> None:
        """Crash the end-point ``pid`` (Section 8)."""

    @abstractmethod
    async def recover(self, pid: ProcessId) -> None:
        """Recover ``pid``; the membership re-admits it."""

    # ------------------------------------------------------------------
    # the server fault domain (substrates with a crashable membership tier)
    # ------------------------------------------------------------------

    def server_ids(self) -> List[ProcessId]:
        """Membership-server ids, sorted; empty when the substrate runs
        an infallible membership (the paper's Section 8 assumption)."""
        return []

    async def server_crash(self, sid: Optional[ProcessId] = None) -> ProcessId:
        """Crash a membership server; its clients fail over to survivors."""
        raise NotImplementedError(f"{self.name} has no crashable membership tier")

    async def server_recover(self, sid: ProcessId) -> None:
        """Recover a crashed membership server from the durable store."""
        raise NotImplementedError(f"{self.name} has no crashable membership tier")

    async def server_partition(self, groups: Iterable[Iterable[ProcessId]]) -> Any:
        """Partition the server tier; clients follow their home server."""
        raise NotImplementedError(f"{self.name} has no crashable membership tier")

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
