"""Forwarding strategy predicates (Section 5.2.2).

When an end-point misses messages that were committed to by cuts of its
transitional set, some member that holds them must forward them.  The
paper leaves the strategy open (a ``ForwardingStrategyPredicate``) and
gives two examples, both implemented here:

* :class:`SimpleStrategy` - a member forwards every committed message a
  peer's synchronization message shows to be missing.  Multiple copies of
  the same message may be sent by different members.
* :class:`MinCopiesStrategy` - once the new membership view and the right
  synchronization messages are known, the members of the transitional set
  deterministically elect (by ``min``) a single forwarder per missing
  message from senders outside the transitional set.

A strategy exposes ``candidates(endpoint)`` - the forwarding actions it
currently enables - and ``allows(endpoint, targets, origin, view, index)``
- the predicate itself, re-checked as the action's precondition.  Both
read the index the end-point's effects maintain (who lags behind the own
cut; T and the agreed cut of the pending view); the full rescans survive
as ``naive_candidates()``, the test-only oracle the index is held to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.types import Cut, ProcessId, View

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.vs_endpoint import VsRfifoTsEndpoint

# (targets, origin, view, index): forward msgs[origin][view][index] to targets.
ForwardCandidate = Tuple[FrozenSet[ProcessId], ProcessId, View, int]


def cut_gaps(own_cut: Cut, peer_cut: Cut) -> Dict[ProcessId, int]:
    """Per origin (in ``own_cut`` order) the first index ``peer_cut`` lacks
    of the messages ``own_cut`` commits to; empty when the peer is not behind."""
    if peer_cut == own_cut:  # the settled case, decided by one dict comparison
        return {}
    return {
        origin: peer_cut.get(origin, 0) + 1
        for origin, have in own_cut.items()
        if peer_cut.get(origin, 0) < have
    }


class ForwardingStrategy:
    """Interface of a ForwardingStrategyPredicate."""

    name = "abstract"

    def candidates(self, endpoint: "VsRfifoTsEndpoint") -> Iterable[ForwardCandidate]:
        raise NotImplementedError

    def allows(
        self,
        endpoint: "VsRfifoTsEndpoint",
        targets: FrozenSet[ProcessId],
        origin: ProcessId,
        view: View,
        index: int,
    ) -> bool:
        """Default: the predicate holds iff candidates() proposes it."""
        return (frozenset(targets), origin, view, index) in set(self.candidates(endpoint))


class NoForwarding(ForwardingStrategy):
    """Forward nothing.  Useful for ablation; liveness then relies on all
    committed messages having their original sender in the transitional
    set."""

    name = "none"

    def candidates(self, endpoint: "VsRfifoTsEndpoint") -> Iterable[ForwardCandidate]:
        return ()


class SimpleStrategy(ForwardingStrategy):
    """The paper's first example strategy.

    ``p`` forwards a message ``m`` (sent by ``r`` in view ``v`` at index
    ``i``) to ``q`` when: ``p`` has committed to deliver ``m`` (its own
    cut covers ``i``); ``p`` knows of no later view of ``q`` than ``v``;
    and the latest synchronization message from ``q`` sent in view ``v``
    shows that ``q`` has not received ``m``.
    """

    name = "simple"

    def candidates(self, endpoint: "VsRfifoTsEndpoint") -> Iterable[ForwardCandidate]:
        own = endpoint.own_sync_msg()
        if own is None:
            return
        view = own.view  # == endpoint.current_view (Invariant 6.9)
        # Peers by first sync arrival, then own-cut order, then index.
        for q, gaps in endpoint.lagging_peers():
            for origin, first in gaps.items():
                for index in range(first, own.cut[origin] + 1):
                    if self._sendable(endpoint, q, origin, view, index):
                        yield (frozenset({q}), origin, view, index)

    def allows(self, endpoint: "VsRfifoTsEndpoint", targets: FrozenSet[ProcessId],
               origin: ProcessId, view: View, index: int) -> bool:
        own = endpoint.own_sync_msg()
        if own is None or len(targets) != 1 or view != own.view:
            return False
        (q,) = targets
        first = endpoint.lagging.get(q, {}).get(origin)
        return (
            first is not None
            and first <= index <= own.cut[origin]
            and self._sendable(endpoint, q, origin, view, index)
        )

    @staticmethod
    def _sendable(endpoint: "VsRfifoTsEndpoint", q: ProcessId, origin: ProcessId,
                  view: View, index: int) -> bool:
        """``p`` holds the message, has not forwarded it to ``q``, and knows
        of no later view of ``q`` (no view_msg yet means vid_0)."""
        announced = endpoint.view_msg.get(q)
        return (
            not (announced is not None and announced.vid > view.vid)
            and endpoint.holds_message(origin, view, index)
            and (q, origin, view, index) not in endpoint.forwarded_set
        )

    def naive_candidates(self, endpoint: "VsRfifoTsEndpoint") -> Iterable[ForwardCandidate]:
        """Test-only oracle: the full rescan ``candidates`` replaced."""
        own = endpoint.own_sync_msg()
        if own is None:
            return
        # A forward needs own.cut to commit to at least one message, so a
        # quiet reconfiguration (empty sparse cut) skips the peer scan
        # entirely, and the inner loop visits only committed origins
        # rather than every view member.
        if not own.cut:
            return
        view = own.view  # == endpoint.current_view (Invariant 6.9)
        for q, q_sync in endpoint.latest_sync_msgs_in_view(view):
            if q == endpoint.pid:
                continue
            if endpoint.view_msg_of(q).vid > view.vid:
                continue  # p knows q reached a later view; don't forward
            for origin, have in own.cut.items():
                missing_from = q_sync.cut.get(origin, 0) + 1
                for index in range(missing_from, have + 1):
                    if not endpoint.holds_message(origin, view, index):
                        continue
                    if (q, origin, view, index) in endpoint.forwarded_set:
                        continue
                    yield (frozenset({q}), origin, view, index)


class MinCopiesStrategy(ForwardingStrategy):
    """The paper's second example strategy: one forwarder per message.

    Requires the new membership view and all the relevant synchronization
    messages.  Only messages whose original sender is *not* in the
    transitional set T are forwarded (members of T will re-send their own
    messages themselves); the unique forwarder for a message is the
    minimum member of T whose cut commits to it.
    """

    name = "min_copies"

    def candidates(self, endpoint: "VsRfifoTsEndpoint") -> Iterable[ForwardCandidate]:
        cuts = self._transitional_cuts(endpoint)
        if not cuts:
            return
        agreed = endpoint.agreed_cut  # pointwise max over T: the committed prefix
        for origin in sorted(agreed):
            # Nobody in T lacks an index at or below T's least cut.
            floor = min(cut.get(origin, 0) for cut in cuts.values())
            for index in range(floor + 1, agreed[origin] + 1):
                needy = self._needy(endpoint, cuts, origin, index)
                if needy:
                    yield (needy, origin, endpoint.current_view, index)

    def allows(self, endpoint: "VsRfifoTsEndpoint", targets: FrozenSet[ProcessId],
               origin: ProcessId, view: View, index: int) -> bool:
        cuts = self._transitional_cuts(endpoint)
        if not cuts or view != endpoint.current_view:
            return False
        needy = self._needy(endpoint, cuts, origin, index)
        return bool(needy) and targets == needy

    @staticmethod
    def _transitional_cuts(endpoint: "VsRfifoTsEndpoint") -> Optional[Dict[ProcessId, Cut]]:
        """The cut of each member of T, once the view of the own start_change
        and every sync it names are in - for a member of T (else None)."""
        change = endpoint.start_change
        new_view = endpoint.mbrshp_view
        if change is None or new_view.start_ids.get(endpoint.pid) != change.cid:
            return None  # the view for this change has not arrived yet
        transitional = endpoint.transitional_set_for(new_view)
        if transitional is None or endpoint.pid not in transitional:
            return None
        return {u: endpoint.sync_msg_for(u, new_view.start_id(u)).cut for u in transitional}

    @staticmethod
    def _needy(endpoint: "VsRfifoTsEndpoint", cuts: Dict[ProcessId, Cut],
               origin: ProcessId, index: int) -> FrozenSet[ProcessId]:
        """Whom ``endpoint`` owes ``msgs[origin][current_view][index]``: the
        members of T lacking it - if ``origin`` is a view member outside T
        and ``endpoint`` the least member of T committed to the message."""
        view = endpoint.current_view
        holders = [u for u, cut in cuts.items() if cut.get(origin, 0) >= index]
        if origin in cuts or origin not in view.members or min(holders, default=None) != endpoint.pid:
            return frozenset()
        if not endpoint.holds_message(origin, view, index):
            return frozenset()
        return frozenset(
            u
            for u, cut in cuts.items()
            if cut.get(origin, 0) < index
            and (u, origin, view, index) not in endpoint.forwarded_set
        )

    def naive_candidates(self, endpoint: "VsRfifoTsEndpoint") -> Iterable[ForwardCandidate]:
        """Test-only oracle: the full rescan ``candidates`` replaced."""
        snapshot = self._transition_snapshot(endpoint)
        if snapshot is None:
            return
        transitional, cuts, view = snapshot
        if endpoint.pid not in transitional:
            return
        outsiders = view.members - transitional
        # Only origins some transitional cut commits to can need a
        # forwarder; with sparse cuts this prunes the outsider scan to
        # the actually-active senders.
        committed_origins = set()
        for cut in cuts.values():
            committed_origins.update(cut)
        for origin in sorted(committed_origins & outsiders):
            committed = max((cuts[u].get(origin, 0) for u in transitional), default=0)
            for index in range(1, committed + 1):
                holders = sorted(u for u in transitional if cuts[u].get(origin, 0) >= index)
                if not holders or holders[0] != endpoint.pid:
                    continue
                needy = frozenset(
                    u
                    for u in transitional
                    if cuts[u].get(origin, 0) < index
                    and (u, origin, view, index) not in endpoint.forwarded_set
                )
                if needy and endpoint.holds_message(origin, view, index):
                    yield (needy, origin, view, index)

    @staticmethod
    def _transition_snapshot(endpoint: "VsRfifoTsEndpoint"):
        """(T, cuts of T, old view) once the new view and syncs are known."""
        change = endpoint.start_change
        new_view = endpoint.mbrshp_view
        if change is None or endpoint.pid not in new_view.members:
            return None
        if new_view.start_ids.get(endpoint.pid) != change.cid:
            return None  # the view for this change has not arrived yet
        own = endpoint.own_sync_msg()
        if own is None:
            return None
        old_view = own.view
        intersection = new_view.members & old_view.members
        syncs = {}
        for q in intersection:
            sync = endpoint.sync_msg_for(q, new_view.start_id(q))
            if sync is None:
                return None  # must wait for all potential members of T
            syncs[q] = sync
        transitional = frozenset(q for q in intersection if syncs[q].view == old_view)
        cuts = {q: syncs[q].cut for q in transitional}
        return transitional, cuts, old_view


STRATEGIES = {
    strategy.name: strategy
    for strategy in (NoForwarding(), SimpleStrategy(), MinCopiesStrategy())
}


def strategy_by_name(name: str) -> ForwardingStrategy:
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown forwarding strategy {name!r}; "
                         f"choose from {sorted(STRATEGIES)}") from None
