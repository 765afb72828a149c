"""A centralized membership oracle: the scripted-timing Figure 2 issuer.

For controlled experiments (and as the degenerate single-server case of
the client-server architecture), ``OracleMembership`` plays the external
membership service with *configurable timing*: after a reconfiguration
trigger it issues ``start_change`` notices ``detection_delay`` later and
the agreed ``view`` after a further ``round_duration`` - the knob the
parallelism experiments (E1/E3) sweep to model membership rounds of
different lengths.

It maintains the Figure 2 discipline per end-point (fresh increasing
cids, a start_change before every view, startId read off the latest
cids), and it cancels a pending view delivery for an end-point whenever
a newer start_change supersedes it - which is how the service, like the
paper's, never delivers views it already knows to be out of date.

It serves one group - :class:`~repro.net.world.SimWorld`'s default one;
named groups run on the real tier
(:class:`~repro.membership.tier.MembershipTier`).  This is the only
place that schedules scripted notices.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Set,
    Tuple,
)

from repro._collections import frozendict
from repro.types import ProcessId, StartChangeId, View, ViewId

if TYPE_CHECKING:  # pragma: no cover - avoids the membership<->net cycle
    from repro.net.simclock import EventScheduler, ScheduledEvent

# Client-side hooks: (cid, members) -> None and (view) -> None.
StartChangeSink = Callable[[StartChangeId, FrozenSet[ProcessId]], None]
ViewSink = Callable[[View], None]


class OracleMembership:
    """Centralized MBRSHP implementation with scripted timing."""

    def __init__(
        self,
        clock: EventScheduler,
        *,
        detection_delay: float = 0.0,
        round_duration: float = 1.0,
    ) -> None:
        self.clock = clock
        self.detection_delay = detection_delay
        self.round_duration = round_duration
        self._crashed: Set[ProcessId] = set()
        # Last cid / view counter issued.
        self._cid = 0
        self._counter = 0
        self._sinks: Dict[ProcessId, Tuple[StartChangeSink, ViewSink]] = {}
        # Scheduled notices per end-point, cancellable when a newer
        # reconfiguration supersedes them.
        self._pending: Dict[ProcessId, List[ScheduledEvent]] = {}
        self.views_formed: List[View] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach_client(
        self,
        pid: ProcessId,
        on_start_change: StartChangeSink,
        on_view: ViewSink,
    ) -> None:
        self._sinks[pid] = (on_start_change, on_view)

    def client_crashed(self, pid: ProcessId) -> None:
        self._crashed.add(pid)

    def client_recovered(self, pid: ProcessId) -> None:
        self._crashed.discard(pid)

    # ------------------------------------------------------------------
    # reconfiguration
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
        detect = self.detection_delay
        spacing = self.round_duration / (extra_changes + 1)
        ordered = sorted(members)
        for pid in ordered:
            for event in self._pending.pop(pid, ()):
                event.cancel()

        final_cids: Dict[ProcessId, StartChangeId] = {}
        for round_index in range(extra_changes + 1):
            at = detect + round_index * spacing
            for pid in ordered:
                self._cid += 1
                final_cids[pid] = self._cid
                self._schedule(pid, at, 0, self._cid, members)
        self._counter += 1
        view = View(ViewId(self._counter), members, frozendict(final_cids))
        self.views_formed.append(view)
        for pid in ordered:
            self._schedule(pid, detect + self.round_duration, 1, view)
        return view

    def _schedule(self, pid: ProcessId, delay: float, sink: int, *notice: Any) -> None:
        """Hand ``notice`` to the end-point's start_change (0) or view (1)
        sink after ``delay``, unless it crashed or was superseded first."""

        def fire() -> None:
            if pid in self._crashed:
                return
            sinks = self._sinks.get(pid)
            if sinks is not None:
                sinks[sink](*notice)

        event = self.clock.schedule(delay, fire)
        self._pending.setdefault(pid, []).append(event)
