"""Substrate-agnostic two-tier synchronization overlay (the paper's §9).

    "In order to increase the scalability, we intend to explore ways to
    incorporate a two-tier hierarchy into our algorithm [...] messages
    will be sent by each process to its designated leader, which will in
    turn, aggregate the cut messages into a single message and forward it
    to the other leaders."

:class:`TwoTierOverlay` implements exactly that, over *any* substrate:
it installs on the :class:`~repro.core.runner.EndpointRunner` seams
(``wire_interceptor`` / ``receive_interceptor``), so synchronization
messages ride member -> leader -> other leaders -> members whether the
wire underneath is the discrete-event simulator, the asyncio hub, or
TCP sockets.  The GCS algorithm is untouched - the paper notes it "is
presented at an abstract level that would allow incorporating such
extensions without violating its correctness" - and the overlay
preserves the only property syncs rely on: every synchronization
message eventually reaches every intended recipient with its original
sender attribution.  Only :class:`~repro.core.messages.SyncMsg` is
relayed; view and application messages stay direct, because they carry
the per-channel FIFO discipline Figure 9 threads ``view_msg`` markers
through.  A marker is lazy - it leaves with its sender's first
application message of the view - so an idle reconfiguration sends no
view message at all, and its wire traffic is the membership round plus
the relayed syncs.

Cost model (n members, L leaders, groups of g = n/L): a
reconfiguration's sync traffic drops from n(n-1) point-to-point messages
to roughly n (up) + L(L-1) (aggregates) + nL (down) - a large saving
when L << n; :func:`auto_leaders` picks L ~ sqrt(n), which minimises the
total.  The price is up to two extra hops plus the leader's batching
delay.

Leadership is *computed, not configured*: the leader of a group, from
any member's standpoint, is the least group member that is alive and
reachable.  When a leader crashes, every member's next synchronization
message routes to the group's new minimum - re-election is a pure
function of the (in-process observable) crash and partition state, so
there is no election protocol to get wrong and no window in which two
members durably disagree.  A fallback timer still flushes incomplete
batches, so a silent member delays but never blocks a reconfiguration.

Aggregates reuse the link layer's batched framing: an
:class:`AggregatedSync` carries a :class:`~repro.links.MessageBatch` of
:class:`UpSync` entries, the same carrier object the three substrates
already coalesce same-link traffic into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.messages import SyncMsg, WireMessage
from repro.links import MessageBatch
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard: the runner
    # imports repro.membership, whose tier imports repro.scale.sharding
    from repro.core.runner import EndpointRunner

#: How long an aggregator waits for stragglers before flushing a partial
#: batch, in model time units (one network hop).
FLUSH_DELAY = 1.0


@dataclass(frozen=True)
class UpSync:
    """Member -> leader: one synchronization message to aggregate."""

    origin: ProcessId
    sync: SyncMsg

    def estimated_size(self) -> int:
        return self.sync.estimated_size()


@dataclass(frozen=True)
class AggregatedSync:
    """Leader -> leader / leader -> member: a batch of :class:`UpSync`."""

    batch: MessageBatch  # of UpSync copies, origin-sorted
    final: bool  # True on the leader->member leg (do not re-forward)

    @property
    def entries(self) -> Tuple[Tuple[ProcessId, SyncMsg], ...]:
        return tuple((up.origin, up.sync) for up in self.batch)

    def estimated_size(self) -> int:
        return sum(up.estimated_size() for up in self.batch)


GroupsLike = Union[
    Mapping[ProcessId, Iterable[ProcessId]], Iterable[Iterable[ProcessId]]
]


def auto_leaders(n: int) -> int:
    """Default leader count for ``n`` members: ~sqrt(n).

    The two-tier sync cost n + L(L-1) + nL is minimised (over integer L)
    near sqrt(n); the exact optimum differs by at most one message in a
    thousand, so the round suffices.
    """
    return max(1, round(math.sqrt(n)))


def balanced_groups(pids: List[ProcessId], leaders: int) -> Dict[ProcessId, List[ProcessId]]:
    """Split ``pids`` into ``leaders`` contiguous groups; first of each leads."""
    pids = sorted(pids)
    if leaders < 1 or leaders > len(pids):
        raise ValueError("need 1 <= leaders <= len(pids)")
    size = (len(pids) + leaders - 1) // leaders
    groups = {}
    for start in range(0, len(pids), size):
        chunk = pids[start:start + size]
        groups[chunk[0]] = chunk
    return groups


class TwoTierOverlay:
    """Install sync aggregation on a set of endpoint runners.

    ``runners`` maps every process to its runner; ``schedule`` is the
    substrate's timer (``(delay, callback)`` in the substrate's own time
    units); ``groups`` is either a mapping of leader -> members (the
    leader key is only a grouping hint - actual leadership is the least
    alive member) or a plain iterable of member groups.  ``connected``
    lets the overlay route around partitions (defaults to
    fully-connected); pass the deployment's ``links.connected``.
    """

    def __init__(
        self,
        runners: Dict[ProcessId, EndpointRunner],
        schedule: Callable[[float, Callable[[], None]], object],
        groups: GroupsLike,
        *,
        connected: Optional[Callable[[ProcessId, ProcessId], bool]] = None,
    ) -> None:
        self.runners = runners
        self.schedule = schedule
        self._connected = connected if connected is not None else (lambda p, q: True)
        if isinstance(groups, Mapping):
            raw_groups = [set(members) | {leader} for leader, members in groups.items()]
        else:
            raw_groups = [set(members) for members in groups]
        self.groups: Tuple[Tuple[ProcessId, ...], ...] = tuple(
            tuple(sorted(group)) for group in raw_groups if group
        )
        self.group_of: Dict[ProcessId, FrozenSet[ProcessId]] = {}
        self._members_of: Dict[ProcessId, Tuple[ProcessId, ...]] = {}
        for group in self.groups:
            member_set = frozenset(group)
            for pid in group:
                self.group_of[pid] = member_set
                self._members_of[pid] = group
        # batch under construction at each aggregator: origin -> sync
        self._pending: Dict[ProcessId, Dict[ProcessId, SyncMsg]] = {}
        self._flush_scheduled: Set[ProcessId] = set()
        # Monotone per-aggregator accept counter; timer snapshots compare
        # against it to tell "still collecting" from "gone silent".
        self._accepts: Dict[ProcessId, int] = {}
        self.aggregates_sent = 0
        self._install()

    # ------------------------------------------------------------------
    # leadership (computed, not configured)
    # ------------------------------------------------------------------

    def _alive(self, pid: ProcessId) -> bool:
        runner = self.runners.get(pid)
        return runner is not None and not runner.endpoint.crashed

    def leader_for(self, pid: ProcessId) -> ProcessId:
        """The leader ``pid`` currently routes through: the least alive,
        reachable member of its group (itself included), falling back to
        the group minimum when the whole group looks dead."""
        members = self._members_of[pid]
        for candidate in members:
            if self._alive(candidate) and (
                candidate == pid or self._connected(pid, candidate)
            ):
                return candidate
        return members[0]

    def current_leaders(self) -> FrozenSet[ProcessId]:
        """The acting leader of each group (for display and tests)."""
        return frozenset(self.leader_for(group[0]) for group in self.groups)

    @property
    def leaders(self) -> FrozenSet[ProcessId]:
        return self.current_leaders()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _install(self) -> None:
        for pid, runner in self.runners.items():
            if pid not in self.group_of:
                continue  # processes outside the hierarchy keep direct syncs
            runner.wire_interceptor = self._make_send_interceptor(pid)
            runner.receive_interceptor = self._make_receive_interceptor(pid)

    def _make_send_interceptor(self, pid: ProcessId):
        def intercept(targets: FrozenSet[ProcessId], message: WireMessage) -> bool:
            if not isinstance(message, SyncMsg):
                return False
            self._send_up(pid, message)
            return True

        return intercept

    def _make_receive_interceptor(self, pid: ProcessId):
        def intercept(src: ProcessId, message: WireMessage) -> bool:
            if isinstance(message, UpSync):
                self._accept_up(pid, message.origin, message.sync)
                return True
            if isinstance(message, AggregatedSync):
                self._accept_aggregate(pid, message)
                return True
            return False

        return intercept

    def _raw_send(self, src: ProcessId, targets: Iterable[ProcessId], message: object) -> None:
        # The runner's send_wire callback IS the substrate's raw send
        # (interception happens upstream, in the runner's _route), so the
        # overlay needs no per-substrate send adapter.
        self.runners[src]._send_wire(frozenset(targets), message)

    # ------------------------------------------------------------------
    # member logic
    # ------------------------------------------------------------------

    def _send_up(self, pid: ProcessId, sync: SyncMsg) -> None:
        leader = self.leader_for(pid)
        if leader == pid:
            self._accept_up(pid, pid, sync)
        else:
            self._raw_send(pid, {leader}, UpSync(pid, sync))

    # ------------------------------------------------------------------
    # aggregator logic
    # ------------------------------------------------------------------

    def _accept_up(self, aggregator: ProcessId, origin: ProcessId, sync: SyncMsg) -> None:
        pending = self._pending.setdefault(aggregator, {})
        pending[origin] = sync
        self._accepts[aggregator] = self._accepts.get(aggregator, 0) + 1
        if self._batch_complete(aggregator):
            self._flush(aggregator)
        elif aggregator not in self._flush_scheduled:
            self._arm_timer(aggregator)

    def _batch_complete(self, aggregator: ProcessId) -> bool:
        """All group members the aggregator expects to hear from have spoken.

        The expectation is read off the aggregator's own endpoint: the
        alive members of its current start_change that belong to this
        group *and currently route through it*.
        """
        endpoint = self.runners[aggregator].endpoint
        change = getattr(endpoint, "start_change", None)
        if change is None:
            return True  # nothing in progress: flush whatever arrived
        pending = self._pending.get(aggregator, ())
        for member in change.members & self.group_of[aggregator]:
            if member in pending or not self._alive(member):
                continue
            if self.leader_for(member) == aggregator:
                return False
        return True

    def _arm_timer(self, aggregator: ProcessId) -> None:
        """Arm the straggler-flush backstop for ``aggregator``.

        The timer fires in two hops - ``FLUSH_DELAY`` later, then once
        more at zero delay - so that on a discrete-event substrate every
        message *arriving at the same instant* is processed first: a
        batch whose last sync lands exactly ``FLUSH_DELAY`` after the
        first is completed and flushed once, not split in two.  The
        simulator delivers an instant as one event, but that event may
        be queued behind the first hop (it takes its place when the
        instant's first carrier is scheduled, which can be after the
        timer was armed); the second hop is queued at the instant itself,
        after every carrier of it was scheduled, so it still runs last.
        """
        self._flush_scheduled.add(aggregator)
        snapshot = self._accepts.get(aggregator, 0)
        self.schedule(
            FLUSH_DELAY,
            lambda: self.schedule(0.0, lambda: self._timer_flush(aggregator, snapshot)),
        )

    def _timer_flush(self, aggregator: ProcessId, snapshot: int) -> None:
        self._flush_scheduled.discard(aggregator)
        if not self._pending.get(aggregator):
            return
        if (
            self._accepts.get(aggregator, 0) != snapshot
            and not self._batch_complete(aggregator)
        ):
            # Syncs arrived while the timer ran but the batch is still
            # short: progress is being made, give the stragglers one
            # more window instead of splitting the batch.
            self._arm_timer(aggregator)
            return
        self._flush(aggregator)

    def _flush(self, aggregator: ProcessId) -> None:
        pending = self._pending.get(aggregator)
        if not pending or not self._alive(aggregator):
            return
        batch = MessageBatch(
            tuple(UpSync(origin, sync) for origin, sync in sorted(pending.items()))
        )
        self._pending[aggregator] = {}
        remote = self._remote_leaders(aggregator)
        if remote:
            self._raw_send(aggregator, remote, AggregatedSync(batch, final=False))
            self.aggregates_sent += len(remote)
        self._distribute(aggregator, batch)

    def _remote_leaders(self, aggregator: ProcessId) -> Set[ProcessId]:
        """The acting leader of every *other* group the aggregator can reach."""
        own = self.group_of[aggregator]
        remote: Set[ProcessId] = set()
        for group in self.groups:
            if group[0] in own:
                continue
            for candidate in group:
                if self._alive(candidate) and self._connected(aggregator, candidate):
                    remote.add(candidate)
                    break
        return remote

    def _accept_aggregate(self, pid: ProcessId, aggregate: AggregatedSync) -> None:
        if not aggregate.final and self.leader_for(pid) == pid:
            self._distribute(pid, aggregate.batch)
        else:
            self._deliver_entries(pid, aggregate.batch)

    def _distribute(self, leader: ProcessId, batch: MessageBatch) -> None:
        """Leader -> reachable local members (and itself)."""
        followers = frozenset(
            member
            for member in self.group_of[leader]
            if member != leader
            and self._alive(member)
            and self._connected(leader, member)
        )
        if followers:
            self._raw_send(leader, followers, AggregatedSync(batch, final=True))
        self._deliver_entries(leader, batch)

    def _deliver_entries(self, pid: ProcessId, batch: MessageBatch) -> None:
        runner = self.runners[pid]
        if runner.endpoint.crashed:
            return
        runner.receive_batch(
            (up.origin, up.sync) for up in batch if up.origin != pid
        )
