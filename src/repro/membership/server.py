"""A dedicated membership server (the client-server architecture of [27]).

Each server manages a set of *local clients*.  Servers learn about each
other's clients through proposals, agree on views in (usually) a single
proposal round, and notify their clients through ``start_change`` and
``view`` notices - implementing the MBRSHP specification of Figure 2 at
every client.

Protocol sketch.  Rounds are identified by a monotone *round number*
shared by adoption (a server that sees a higher round joins it):

1. A trigger fires - the failure detector reports a changed reachable
   set, or a local client joins/leaves/crashes/recovers - and the server
   starts round ``r+1``: it picks fresh start_change identifiers for its
   local clients, announces ``start_change(cid, estimate)`` to each, and
   sends every reachable server a :class:`ServerProposal` carrying its
   round, configuration, clients, cids, estimate and view-counter
   watermark.
2. A server receiving a proposal with a higher round adopts that round
   (announcing fresh start_changes and re-proposing).
3. A view forms from a *complete, consistent* round: proposals from all
   servers of the configuration, with this round and configuration, all
   announcing the same estimate, which equals the union of their client
   sets.  If the round is complete but estimates disagree with the union
   (stale client registries), the server bumps to the next round with the
   correct union - everyone else follows, and since by then all registries
   agree, that next round forms the view.  The common case is one round;
   the cold-registry case is two.

Formation is deterministic from the proposal set (counter = max watermark
+ 1, origin = least server of the configuration, startId = union of the
proposals' cid maps), so all servers of a stable configuration deliver
the *same* view triple - which the GCS algorithm's agreement relies on.
Per-client spec compliance (Figure 2) is checked in the tests by
replaying each client's notice stream through ``MbrshpSpec``.

The paper assumes the membership service itself never crashes and never
forgets the per-client cid and view-counter watermarks (Section 8).
Here that assumption is relaxed: the watermarks live with the tier, not
the server - the round and counter floors of its
:class:`~repro.membership.state.WatermarkStore` and the cid registry its
servers share.  A crashed server (:meth:`MembershipServer.crash`) goes
inert and hands its clients over; on recovery
(:meth:`MembershipServer.restore`) it starts on the two floors and
nothing else, so its first round exceeds every pre-crash round - peers
adopt it (a rejoin, not a fork) - and every counter it issues preserves
Local Monotonicity.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro._collections import frozendict
from repro.links import Run
from repro.membership.protocol import ServerProposal, StartChangeNotice, ViewNotice
from repro.types import ProcessId, StartChangeId, View, ViewId

SendFn = Callable[[ProcessId, Any], None]


class MembershipServer:
    """One membership server; communicates via an injected ``send``."""

    def __init__(
        self,
        sid: ProcessId,
        send: SendFn,
        clients: Iterable[ProcessId] = (),
        *,
        cid_registry: Optional[Dict[ProcessId, StartChangeId]] = None,
        initial_counter: int = 0,
    ) -> None:
        self.sid = sid
        self._send = send
        self.local_clients: Set[ProcessId] = set(clients)
        self.reachable: FrozenSet[ProcessId] = frozenset({sid})
        self.round = 0
        # ``initial_counter`` seeds the view-counter watermark: a server
        # created after others have already formed views (e.g. to serve a
        # new partition component) must never issue a counter a client
        # could have seen before, or Local Monotonicity breaks.
        self.max_counter = initial_counter
        # Per-client watermarks; never reset (the service keeps its state).
        # A shared ``cid_registry`` lets several servers of one logical
        # service hand out locally-unique cids even when a client is moved
        # between servers across reconfigurations.
        self._next_cid: Dict[ProcessId, StartChangeId] = (
            cid_registry if cid_registry is not None else {}
        )
        self._announced_estimate: Optional[FrozenSet[ProcessId]] = None
        self._crashed_clients: Set[ProcessId] = set()
        # Latest proposal per server (highest round wins).
        self._proposals: Dict[ProcessId, ServerProposal] = {}
        self._formed_round = -1
        self.rounds_started = 0
        # Until activated (the tier's first reachability report), configuration
        # triggers accumulate silently instead of starting rounds, so
        # initial client registration costs a single round.
        self.active = False
        # A crashed server is inert: it neither reacts to triggers nor
        # handles messages until the tier restores it.
        self.crashed = False
        # Fired the moment a view forms (before any notice is sent):
        # the tier's durability point, and the anchor of the server
        # fault-domain trace rules (MBRSHP-SRV-MONO / -FORK).
        self.on_view_formed: Optional[Callable[[View], None]] = None

    # ------------------------------------------------------------------
    # the fault domain: crash / restore
    # ------------------------------------------------------------------

    def crash(self) -> Tuple[Tuple[ProcessId, ...], Tuple[ProcessId, ...]]:
        """Crash the server; returns its clients and the crashed among them.

        Both sorted, for the tier to rehome (:meth:`inherit_clients` at
        the survivors): a dead server serves nobody.  Everything else it
        held (proposals in flight, announced estimates) is volatile and
        genuinely lost; the watermarks a recovery needs are the tier's.
        """
        clients = tuple(sorted(self.local_clients))
        crashed = tuple(sorted(self._crashed_clients))
        self.crashed = True
        self.active = False
        self._proposals.clear()
        self._announced_estimate = None
        self.local_clients = set()
        self._crashed_clients = set()
        return clients, crashed

    def restore(self, *, round_floor: int, counter_floor: int) -> None:
        """Recover on the tier's floors, serving no client.

        ``round_floor``/``counter_floor`` come from the tier's store: the
        round is the highest the tier ever observed (so the server's
        first new round is adopted by peers - a rejoin, not a fork) and
        the counter watermark the highest any client may have seen
        (Local Monotonicity).  The tier rehomed the server's clients at
        crash time, so it comes back empty.
        """
        self.local_clients = set()
        self._crashed_clients = set()
        self.round = round_floor
        self.max_counter = counter_floor
        self.reachable = frozenset({self.sid})
        self._proposals = {}
        self._announced_estimate = None
        # Never re-form a pre-crash round from stale adopted proposals.
        self._formed_round = self.round
        self.crashed = False
        self.active = False

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------

    def activate(self, servers: Iterable[ProcessId]) -> None:
        """Bootstrap: first reachability report; starts the first round."""
        if self.crashed:
            return
        self.active = True
        self.reachable = frozenset(servers) | {self.sid}
        self.begin_round(self.round + 1)

    def set_reachable(self, servers: Iterable[ProcessId]) -> None:
        """Failure-detector input: the servers currently reachable."""
        if not self.active:
            self.activate(servers)
            return
        reachable = frozenset(servers) | {self.sid}
        if reachable == self.reachable:
            return
        self.reachable = reachable
        self.begin_round(self.round + 1)

    def _trigger(self) -> None:
        if self.active:
            self.begin_round(self.round + 1)

    def add_client(self, client: ProcessId) -> None:
        self.update_clients(add=(client,))

    def remove_client(self, client: ProcessId) -> None:
        self.update_clients(remove=(client,))

    def update_clients(
        self,
        add: Iterable[ProcessId] = (),
        remove: Iterable[ProcessId] = (),
        *,
        trigger: bool = True,
    ) -> bool:
        """Apply a batch of registry changes with at most one round trigger.

        Returns whether the registry changed.  ``trigger=False`` defers
        the round - used when the caller will change the topology next and
        wants a single round covering both.
        """
        changed = False
        for client in remove:
            if client in self.local_clients:
                self.local_clients.discard(client)
                self._crashed_clients.discard(client)
                changed = True
        for client in add:
            if client not in self.local_clients:
                self.local_clients.add(client)
                changed = True
        if changed and trigger:
            self._trigger()
        return changed

    def inherit_clients(
        self,
        clients: Iterable[ProcessId],
        *,
        counter_floor: int,
        crashed: Iterable[ProcessId] = (),
    ) -> bool:
        """Take over clients another server served; starts no round.

        ``counter_floor`` is the tier watermark at the move: a server
        inheriting clients must issue counters above anything they may
        have seen.  Those of ``clients`` listed in ``crashed`` stay
        crashed here - moving a client must not resurrect it.  Returns
        whether the registry changed.
        """
        clients = tuple(clients)
        if clients:
            self.max_counter = max(self.max_counter, counter_floor)
        changed = self.update_clients(add=clients, trigger=False)
        self._crashed_clients.update(set(clients).intersection(crashed))
        return changed

    def client_crashed(self, client: ProcessId) -> None:
        if client in self.local_clients and client not in self._crashed_clients:
            self._crashed_clients.add(client)
            self._trigger()

    def client_recovered(self, client: ProcessId) -> None:
        if client in self._crashed_clients:
            self._crashed_clients.discard(client)
            self._trigger()

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------

    def active_clients(self) -> FrozenSet[ProcessId]:
        return frozenset(self.local_clients - self._crashed_clients)

    def _registry_estimate(self) -> FrozenSet[ProcessId]:
        """Union of client sets over current-config proposals + own clients."""
        estimate = set(self.active_clients())
        for sid, proposal in self._proposals.items():
            if sid != self.sid and proposal.config == self.reachable:
                estimate |= proposal.local_clients
        return frozenset(estimate)

    def begin_round(self, round_no: int, estimate: Optional[FrozenSet[ProcessId]] = None) -> None:
        """Start (or adopt) membership round ``round_no``."""
        if self.crashed:
            return
        if round_no <= self.round and self._proposals.get(self.sid) is not None:
            return
        self.round = round_no
        self.rounds_started += 1
        if estimate is None:
            estimate = self._registry_estimate()
        self._announced_estimate = estimate
        cids: Dict[ProcessId, StartChangeId] = {}
        for client in sorted(self.active_clients()):
            if client not in estimate:
                continue
            cid = self._next_cid.get(client, 0) + 1
            self._next_cid[client] = cid
            cids[client] = cid
            self._send(client, StartChangeNotice(client, cid, estimate))
        proposal = ServerProposal(
            server=self.sid,
            attempt=round_no,
            config=self.reachable,
            local_clients=self.active_clients(),
            cids=frozendict(cids),
            estimate=estimate,
            max_counter=self.max_counter,
        )
        self._proposals[self.sid] = proposal
        # Sorted: send order feeds the fault injector's RNG stream, and
        # hash-order iteration would leak the interpreter's hash seed.
        for sid in sorted(self.reachable):
            if sid != self.sid:
                self._send(sid, proposal)
        self._maybe_form_view()

    def on_run(self, run: Run) -> None:
        """A substrate's run of arrivals (see :class:`~repro.membership.tier.TierLink`),
        taken message by message."""
        for src, messages in run:
            for message in messages:
                self.on_message(src, message)

    def on_message(self, src: ProcessId, message: Any) -> None:
        if self.crashed:
            return  # a dead server hears nothing
        if isinstance(message, ServerProposal):
            self._on_proposal(message)

    def _on_proposal(self, proposal: ServerProposal) -> None:
        if proposal.server not in self.reachable:
            return  # stale sender; our FD will tell us if it comes back
        current = self._proposals.get(proposal.server)
        if current is not None and current.attempt >= proposal.attempt:
            return
        self._proposals[proposal.server] = proposal
        if proposal.attempt > self.round and proposal.config == self.reachable:
            # Adopt the higher round: fresh start_changes, re-propose.
            self.begin_round(proposal.attempt)
            return
        self._maybe_form_view()

    def _round_proposals(self) -> Optional[List[ServerProposal]]:
        """Proposals from every reachable server for the current round."""
        proposals = []
        for sid in sorted(self.reachable):
            proposal = self._proposals.get(sid)
            if (
                proposal is None
                or proposal.config != self.reachable
                or proposal.attempt != self.round
            ):
                return None
            proposals.append(proposal)
        return proposals

    def _maybe_form_view(self) -> None:
        if self.round <= self._formed_round:
            return
        proposals = self._round_proposals()
        if proposals is None:
            return
        members = frozenset().union(*(p.local_clients for p in proposals))
        if not members:
            return
        if members != self._announced_estimate:
            # Our announcement was stale (a peer brought clients we did not
            # know about, or lost some): bump to the next round with the
            # correct union.  Peers compute the same union and do the same,
            # so the next round is consistent and forms the view.
            self.begin_round(self.round + 1, estimate=members)
            return
        if any(p.estimate != members for p in proposals):
            # A peer announced a stale estimate; it will bump the round
            # itself (previous branch, at its site) - wait for its revision
            # rather than delivering a view it could never deliver.
            return
        start_ids: Dict[ProcessId, StartChangeId] = {}
        for proposal in proposals:
            start_ids.update(dict(proposal.cids))
        if set(start_ids) != set(members):
            return  # incomplete cid coverage; a revision is on its way
        counter = max(p.max_counter for p in proposals) + 1
        origin = min(self.reachable)
        view = View(ViewId(counter, origin), members, frozendict(start_ids))
        self.max_counter = counter
        self._formed_round = self.round
        if self.on_view_formed is not None:
            self.on_view_formed(view)
        for client in sorted(self.active_clients() & members):
            self._send(client, ViewNotice(client, view))

    def __repr__(self) -> str:
        return (
            f"<MembershipServer {self.sid} clients={sorted(self.local_clients)} "
            f"reachable={sorted(self.reachable)} round={self.round}>"
        )
