"""A centralized membership oracle: the scripted-timing Figure 2 issuer.

For controlled experiments (and as the degenerate single-server case of
the client-server architecture), ``OracleMembership`` plays the external
membership service with *configurable timing*: a reconfiguration trigger
issues ``start_change`` notices at once and the agreed ``view``
``round_duration`` later - the knob the parallelism experiments (E1/E3)
sweep to model membership rounds of different lengths.

It maintains the Figure 2 discipline per end-point (fresh increasing
cids, a start_change before every view, startId read off the latest
cids), and it cancels a pending view delivery for an end-point whenever
a newer start_change supersedes it - which is how the service, like the
paper's, never delivers views it already knows to be out of date.

It is driven through the control surface of
:class:`~repro.membership.tier.MembershipTier` - ``add_client`` /
``start`` / ``set_members`` / ``plan_partition`` + ``apply_partition`` /
``heal`` / ``client_crashed`` / ``client_recovered`` - and hands its
notices over as the same :class:`~repro.membership.protocol.StartChangeNotice`
/ :class:`~repro.membership.protocol.ViewNotice` objects, so a
deployment holds *a membership service* and never asks which.  What
stays its own: it runs no servers, every fault-triggered view is of
*all* its live clients (there is no registry of who was configured out),
and :meth:`reconfigure` scripts arbitrary view sequences directly.

It serves one group - :class:`~repro.net.world.SimWorld`'s default one;
named groups run on the real tier.  This is the only place that
schedules scripted notices.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Set,
)

from repro._collections import frozendict
from repro.membership.protocol import StartChangeNotice, ViewNotice
from repro.types import ProcessId, StartChangeId, View, ViewId

if TYPE_CHECKING:  # pragma: no cover - avoids the membership<->net cycle
    from repro.links import LinkCore
    from repro.net.simclock import EventScheduler, ScheduledEvent


class OracleMembership:
    """Centralized MBRSHP implementation with scripted timing."""

    #: No membership servers: the infallible service of the paper's Section 8.
    servers: Collection[ProcessId] = ()

    def __init__(
        self,
        clock: EventScheduler,
        deliver: Callable[[ProcessId, Any], None],
        links: LinkCore,
        *,
        round_duration: float = 1.0,
    ) -> None:
        self.clock = clock
        # (client, notice): hands a notice to the client's end-point host.
        self._deliver = deliver
        # The substrate's link core, cut and healed here as the tier does.
        self.links = links
        self.round_duration = round_duration
        self._clients: Set[ProcessId] = set()
        self._crashed: Set[ProcessId] = set()
        # Last cid / view counter issued.
        self._cid = 0
        self._counter = 0
        # Scheduled notices per end-point, cancellable when a newer
        # reconfiguration supersedes them.
        self._pending: Dict[ProcessId, List[ScheduledEvent]] = {}
        self.views_formed: List[View] = []

    # ------------------------------------------------------------------
    # the control surface (shared with MembershipTier)
    # ------------------------------------------------------------------

    def add_client(self, pid: ProcessId) -> None:
        self._clients.add(pid)

    def active_members(self) -> FrozenSet[ProcessId]:
        """Whom the next fault-triggered view will hold."""
        return frozenset(self._clients - self._crashed)

    def start(self) -> None:
        """Form the view of every live client."""
        self.reconfigure([self._clients])

    def set_members(self, members: Iterable[ProcessId]) -> bool:
        """Form the view of ``members``; False if no view will form."""
        target = frozenset(members)
        unknown = target - self._clients
        if unknown:
            raise ValueError(f"unknown clients {sorted(unknown)}; add_client them first")
        return bool(self.reconfigure([target]))

    def plan_partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[FrozenSet[ProcessId]]:
        """With no server to assign, the plan is the groups themselves."""
        return [frozenset(group) for group in groups]

    def apply_partition(self, plan: List[FrozenSet[ProcessId]]) -> None:
        """Cut the transport along ``plan``; script one view per group."""
        self.links.partition(plan)
        self.reconfigure(plan)

    def heal(self) -> None:
        self.links.heal()
        self.start()

    def client_crashed(self, pid: ProcessId) -> List[View]:
        """Returns the named-group views re-formed: none, it has no groups."""
        self._crashed.add(pid)
        self.start()
        return []

    def client_recovered(self, pid: ProcessId) -> List[View]:
        self._crashed.discard(pid)
        self.start()
        return []

    # ------------------------------------------------------------------
    # scripted reconfiguration
    # ------------------------------------------------------------------

    def reconfigure(
        self,
        groups: Iterable[Iterable[ProcessId]],
        *,
        extra_changes: int = 0,
    ) -> List[View]:
        """Form one view per group; return them (delivery is scheduled).

        ``extra_changes`` inserts additional start_change notifications
        (membership "changing its mind") before the final one, spaced
        evenly across the round - used by tests of repeated changes.
        """
        views: List[View] = []
        for group in groups:
            members = frozenset(group) - self._crashed
            if members:
                views.append(self._form_view(members, extra_changes))
        return views

    def _form_view(self, members: FrozenSet[ProcessId], extra_changes: int) -> View:
        spacing = self.round_duration / (extra_changes + 1)
        ordered = sorted(members)
        for pid in ordered:
            for event in self._pending.pop(pid, ()):
                event.cancel()

        final_cids: Dict[ProcessId, StartChangeId] = {}
        for round_index in range(extra_changes + 1):
            at = round_index * spacing
            for pid in ordered:
                self._cid += 1
                final_cids[pid] = self._cid
                self._schedule(pid, at, StartChangeNotice(pid, self._cid, members))
        self._counter += 1
        view = View(ViewId(self._counter), members, frozendict(final_cids))
        self.views_formed.append(view)
        for pid in ordered:
            self._schedule(pid, self.round_duration, ViewNotice(pid, view))
        return view

    def _schedule(self, pid: ProcessId, delay: float, notice: Any) -> None:
        """Deliver ``notice`` to client ``pid`` after ``delay``, unless it
        crashed or was superseded first."""

        def fire() -> None:
            if pid in self._clients and pid not in self._crashed:
                self._deliver(pid, notice)

        event = self.clock.schedule(delay, fire)
        self._pending.setdefault(pid, []).append(event)
