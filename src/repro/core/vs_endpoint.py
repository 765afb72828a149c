"""Virtual synchrony + transitional sets end-point, Figure 10.

``VsRfifoTsEndpoint`` is the child of :class:`WvRfifoEndpoint` in the
inheritance construct of [26].  While no view change is in progress it
behaves exactly like its parent.  On a ``start_change(cid, set)`` it
widens its reliable set, sends everyone in ``set`` a synchronization
message tagged with the *locally unique* ``cid`` carrying its current
view and its delivery cut, and thereafter restricts application-message
delivery to the agreed cuts.  When the membership view ``v'`` arrives,
the ``v'.startId`` map identifies which synchronization messages to use,
so end-points moving together from ``v`` to ``v'`` compute the same
transitional set and the same delivery cut - without ever pre-agreeing on
a global identifier.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro._collections import frozendict
from repro.core.forwarding import ForwardingStrategy, SimpleStrategy, cut_gaps
from repro.core.messages import AckMsg, FwdMsg, SyncMsg, WireMessage
from repro.core.wv_endpoint import WvRfifoEndpoint
from repro.ioa import ActionKind
from repro.types import Cut, ProcessId, StartChange, StartChangeId, View


def _raised(agreed: Dict[ProcessId, int], cut: Cut) -> Dict[ProcessId, int]:
    """``agreed``, raised in place to the pointwise max of itself and ``cut``."""
    if cut != agreed:  # settled load: every cut of T is the same
        for origin, committed in cut.items():
            if committed > agreed.get(origin, 0):
                agreed[origin] = committed
    return agreed


class VsRfifoTsEndpoint(WvRfifoEndpoint):
    """VS_RFIFO+TS_p MODIFIES WV_RFIFO_p (Figure 10)."""

    SIGNATURE = {
        "mbrshp.start_change": ActionKind.INPUT,  # (p, cid, set) new
        "view": ActionKind.OUTPUT,  # (p, v, T) modifies wv_rfifo.view (p, v)
    }

    PARAM_PROJECTIONS = {
        # view_p(v, T) modifies wv_rfifo.view_p(v): drop T for the parent.
        "view": lambda p, v, T: (p, v),
    }

    def __init__(
        self,
        pid: ProcessId,
        *,
        forwarding: Optional[ForwardingStrategy] = None,
        gc_views: bool = False,
        compact_syncs: bool = False,
        ack_gc_interval: Optional[int] = None,
        **kwargs: Any,
    ) -> None:
        self.forwarding = forwarding or SimpleStrategy()
        self.gc_views = gc_views
        # Section 5.2.4: send the compact "I am not in your transitional
        # set" sync variant to processes outside the current view.
        self.compact_syncs = compact_syncs
        # Section 5.1's closing remark, implemented: broadcast cumulative
        # delivery acknowledgements every `ack_gc_interval` deliveries and
        # discard message prefixes acknowledged by every view member.
        # None disables (the formal algorithm never frees memory).
        self.ack_gc_interval = ack_gc_interval
        if kwargs.get("strict") and (gc_views or ack_gc_interval):
            raise ValueError(
                "garbage collection mutates parent-owned buffers and is not "
                "part of the formal construct; disable strict mode to use it"
            )
        super().__init__(pid, **kwargs)

    def _state(self) -> None:
        self.start_change: Optional[StartChange] = None
        # current_view.members | start_change.members, built once per
        # start_change (None without one): the reliable set to widen to.
        self.widened: Optional[FrozenSet[ProcessId]] = None
        # sync_msg[q][cid]: the (view, cut) q attached to start_change cid.
        self.sync_msg: Dict[ProcessId, Dict[StartChangeId, SyncMsg]] = {}
        # forwarded_set: (target, origin, view, index) quadruples already
        # forwarded, so the same message is never forwarded twice to the
        # same end-point.
        self.forwarded_set: Set[Tuple[ProcessId, ProcessId, View, int]] = set()
        # cids whose compact sync half (Section 5.2.4) has been sent.
        self.compact_sync_sent: Set[StartChangeId] = set()
        # acknowledgement-based GC state (ack_gc_interval feature):
        # acked[member][sender] = highest index member acknowledged.
        self.acked: Dict[ProcessId, Dict[ProcessId, int]] = {}
        self.deliveries_since_ack = 0
        # The reconfiguration index: what the preconditions would otherwise
        # rescan sync_msg for on every evaluation; written only by this
        # class's effects.  view_syncs[q]: q's latest sync sent in
        # current_view.  lagging[q][origin]: the first index of the own
        # cut's messages that sync shows missing and that was not yet
        # forwarded - only peers and origins behind the own cut.
        self.view_syncs: Dict[ProcessId, SyncMsg] = {}
        self.lagging: Dict[ProcessId, Dict[ProcessId, int]] = {}
        # For the move from current_view to mbrshp_view: the members of T
        # heard from, the pointwise max of their cuts, and how many syncs
        # the view names are still missing (initially the own one).
        self.transitional: List[ProcessId] = []
        self.agreed_cut: Dict[ProcessId, int] = {}
        self.syncs_missing = 1

    # -- state helpers ------------------------------------------------------

    def sync_msg_for(self, q: ProcessId, cid: StartChangeId) -> Optional[SyncMsg]:
        return self.sync_msg.get(q, {}).get(cid)

    def own_sync_msg(self) -> Optional[SyncMsg]:
        """This end-point's sync message for the current start_change."""
        if self.start_change is None:
            return None
        return self.sync_msg_for(self.pid, self.start_change.cid)

    def latest_sync_msgs_in_view(self, view: View) -> List[Tuple[ProcessId, SyncMsg]]:
        """Per peer, the latest (highest-cid) sync message sent in ``view``
        (the rescan ``view_syncs`` caches for the current view)."""
        result = []
        for q, by_cid in self.sync_msg.items():
            in_view = [(cid, m) for cid, m in by_cid.items() if m.view == view]
            if in_view:
                result.append((q, max(in_view)[1]))
        return result

    def holds_message(self, origin: ProcessId, view: View, index: int) -> bool:
        log = self.peek_buffer(origin, view)
        return log is not None and log.has(index)

    def local_cut(self) -> Cut:
        """The cut this end-point can commit to: its longest prefixes."""
        view = self.current_view
        bindings = {}
        for q in view.members:
            log = self.peek_buffer(q, view)
            bindings[q] = log.longest_prefix() if log is not None else 0
        return frozendict(bindings)

    def sync_cut(self) -> Cut:
        """:meth:`local_cut` without the zero entries, for the wire.

        Every consumer of a sync cut reads it through ``.get(q, 0)``, so
        dropping zeros is observationally equivalent - and it keeps the
        per-sync payload (and the Figure 10 cut agreement scan) O(active
        senders) instead of O(view members) in a thousand-member view
        with little traffic.
        """
        view = self.current_view
        members = view.members
        bindings = {}
        # Iterate the buffers, not the membership: only processes with a
        # buffered log can have a nonzero prefix, and with no traffic the
        # scan is empty regardless of the view's size.
        for q, buffers in self.msgs.items():
            if q in members:
                log = buffers.get(view)
                if log is not None:
                    prefix = log.longest_prefix()
                    if prefix:
                        bindings[q] = prefix
        return frozendict(bindings)

    def transitional_set_for(self, v: View) -> Optional[FrozenSet[ProcessId]]:
        """T for moving into ``v``, or None while sync messages are missing."""
        if v == self.mbrshp_view:  # the indexed view: read the answer
            transitional, missing = self.transitional, self.syncs_missing
        else:
            transitional, _agreed, missing = self._scan_syncs(v, self.current_view)
        return None if missing else frozenset(transitional)

    # ------------------------------------------------------------------
    # INPUT mbrshp.start_change_p(id, set)
    # ------------------------------------------------------------------

    def _eff_mbrshp_start_change(self, p: ProcessId, cid: StartChangeId, members: FrozenSet[ProcessId]) -> None:
        self.start_change = StartChange(cid, frozenset(members))
        self.widened = self.current_view.members | self.start_change.members
        self._index_lagging()  # nobody lags behind a cut not yet sent

    # ------------------------------------------------------------------
    # INPUT mbrshp.view_p(v), and the index the effects maintain
    # ------------------------------------------------------------------

    def _eff_mbrshp_view(self, p: ProcessId, v: View) -> None:
        self.transitional, self.agreed_cut, self.syncs_missing = self._scan_syncs(v, self.current_view)

    def lagging_peers(self) -> Iterable[Tuple[ProcessId, Dict[ProcessId, int]]]:
        """``lagging`` by first sync arrival (the order of ``sync_msg``)."""
        lagging = self.lagging
        return [(q, lagging[q]) for q in self.sync_msg if q in lagging] if lagging else ()

    def _index_lagging(self, peers: Optional[Tuple[ProcessId, ...]] = None) -> None:
        """Re-derive ``lagging`` for ``peers`` whose sync changed - or for
        everyone, when the own sync (hence the own cut) did."""
        own = self.own_sync_msg()
        if peers is None:
            self.lagging, peers = {}, tuple(self.view_syncs)
        for q in peers:
            gaps = cut_gaps(own.cut, self.view_syncs[q].cut) if own is not None else None
            if gaps:
                self.lagging[q] = gaps
            else:
                self.lagging.pop(q, None)

    def _index_sync(self, q: ProcessId, m: SyncMsg) -> None:
        """Fold the sync just stored for ``q`` into the index."""
        current, v = self.current_view, self.mbrshp_view
        in_view = m.view == current
        latest = self.view_syncs.get(q)
        if in_view and (latest is None or latest.cid < m.cid):
            self.view_syncs[q] = m
            self._index_lagging(None if q == self.pid else (q,))
        if q in v.members and q in current.members and v.start_id(q) == m.cid:
            self.syncs_missing -= 1  # one of the syncs mbrshp_view names
            if in_view:
                self.transitional.append(q)
                self.agreed_cut = _raised(self.agreed_cut, m.cut)

    def _scan_syncs(self, v: View, current: View) -> Tuple[List[ProcessId], Dict[ProcessId, int], int]:
        """What the syncs ``v`` names say about the move out of ``current``:
        (members of T heard from, pointwise max of their cuts, syncs missing)."""
        transitional: List[ProcessId] = []
        agreed: Dict[ProcessId, int] = {}
        missing = 0
        for q in v.members & current.members:
            sync = self.sync_msg_for(q, v.start_id(q))
            if sync is None:
                missing += 1
            elif sync.view == current:
                transitional.append(q)
                agreed = _raised(agreed, sync.cut)
        return transitional, agreed, missing

    # ------------------------------------------------------------------
    # OUTPUT co_rfifo.reliable_p(set) - restriction
    # ------------------------------------------------------------------

    def _desired_reliable_set(self) -> FrozenSet[ProcessId]:
        widened = self.widened
        return frozenset(self.current_view.members) if widened is None else widened

    def _pre_co_rfifo_reliable(self, p: ProcessId, targets: FrozenSet[ProcessId]) -> bool:
        return frozenset(targets) == self._desired_reliable_set()

    # ------------------------------------------------------------------
    # OUTPUT co_rfifo.send_p - sync messages (new) and forwarding (restricted)
    # ------------------------------------------------------------------

    def _sync_common_ready(self) -> bool:
        """Shared preconditions of both sync variants (children extend)."""
        change = self.start_change
        return change is not None and change.members <= self.reliable_set

    def _sync_send_ready(self) -> bool:
        """Non-message preconditions for sending this change's full sync."""
        change = self.start_change
        # The O(1) already-sent check runs before the O(members) subset
        # test in _sync_common_ready: after the sync is out (the steady
        # state of a drain during a reconfiguration) this is two dict hits.
        return (
            change is not None
            and self.sync_msg_for(self.pid, change.cid) is None
            and self._sync_common_ready()
        )

    def _full_sync_targets(self) -> FrozenSet[ProcessId]:
        """Recipients of the full synchronization message.

        Without the Section 5.2.4 optimization: everyone in the
        start_change set.  With it: only processes that share the current
        view (others can never include us in their transitional sets, so
        they get the compact variant instead).
        """
        change = self.start_change
        targets = change.members - {self.pid}
        if self.compact_syncs:
            targets &= self.current_view.members
        return frozenset(targets)

    def _compact_sync_targets(self) -> FrozenSet[ProcessId]:
        change = self.start_change
        return frozenset(change.members - {self.pid} - self.current_view.members)

    def _compact_sync_ready(self) -> bool:
        change = self.start_change
        return (
            self.compact_syncs
            and self._sync_common_ready()
            and change.cid not in self.compact_sync_sent
            and bool(self._compact_sync_targets())
        )

    def _pre_co_rfifo_send(self, p: ProcessId, targets: FrozenSet[ProcessId], m: WireMessage) -> bool:
        if isinstance(m, AckMsg):
            return (
                self._ack_ready()
                and m.view_id == self.current_view.vid
                and frozenset(targets) == self.current_view.members - {self.pid}
            )
        if isinstance(m, SyncMsg) and m.compact:
            return (
                self._compact_sync_ready()
                and m.cid == self.start_change.cid
                and frozenset(targets) == self._compact_sync_targets()
            )
        if isinstance(m, SyncMsg):
            change = self.start_change
            return (
                self._sync_send_ready()
                and m.cid == change.cid
                and frozenset(targets) == self._full_sync_targets()
                and m.view == self.current_view
                and m.cut == self.sync_cut()
            )
        if isinstance(m, FwdMsg):
            key_missing = all(
                (q, m.origin, m.view, m.index) not in self.forwarded_set for q in targets
            )
            return key_missing and self.forwarding.allows(self, frozenset(targets), m.origin, m.view, m.index)
        return True  # view/app messages: the parent's preconditions apply

    def _eff_co_rfifo_send(self, p: ProcessId, targets: FrozenSet[ProcessId], m: WireMessage) -> None:
        if isinstance(m, SyncMsg):
            if m.compact:
                self.compact_sync_sent.add(m.cid)
            else:
                self.sync_msg.setdefault(self.pid, {})[m.cid] = m
                self._index_sync(self.pid, m)
        elif isinstance(m, FwdMsg):
            for q in targets:
                self.forwarded_set.add((q, m.origin, m.view, m.index))
                self._index_forwarded(q, m)
        elif isinstance(m, AckMsg):
            self.deliveries_since_ack = 0
            self.acked[self.pid] = dict(m.delivered)
            self._run_ack_gc()

    def _index_forwarded(self, q: ProcessId, m: FwdMsg) -> None:
        """Advance ``lagging[q]`` past the message just forwarded to ``q``."""
        gaps = self.lagging.get(q)
        if gaps is not None and gaps.get(m.origin) == m.index:
            if m.index < self.own_sync_msg().cut[m.origin]:
                gaps[m.origin] = m.index + 1
            else:
                del gaps[m.origin]
                if not gaps:
                    del self.lagging[q]

    def _ack_ready(self) -> bool:
        return (
            self.ack_gc_interval is not None
            and self.deliveries_since_ack >= self.ack_gc_interval
            and len(self.current_view.members) > 1
        )

    def _make_ack(self) -> AckMsg:
        delivered = {q: self.dlvrd(q) for q in self.current_view.members}
        return AckMsg(self.current_view.vid, frozendict(delivered))

    def _candidates_co_rfifo_send(self) -> Iterable[Tuple[ProcessId, FrozenSet[ProcessId], WireMessage]]:
        yield from super()._candidates_co_rfifo_send()
        # Each piece is skipped outright when its option is off or no
        # change is in progress: most drains run with neither.
        if self.ack_gc_interval is not None and self._ack_ready():
            yield (
                self.pid,
                frozenset(self.current_view.members - {self.pid}),
                self._make_ack(),
            )
        change = self.start_change
        if change is not None:
            if self._sync_send_ready():
                yield (
                    self.pid,
                    self._full_sync_targets(),
                    SyncMsg(change.cid, self.current_view, self.sync_cut()),
                )
            if self.compact_syncs and self._compact_sync_ready():
                yield (
                    self.pid,
                    self._compact_sync_targets(),
                    SyncMsg(change.cid, None, None),
                )
        for targets, origin, view, index in self.forwarding.candidates(self):
            log = self.peek_buffer(origin, view)
            if log is not None and log.has(index):
                yield (self.pid, targets, FwdMsg(origin, view, index, log.get(index)))

    # ------------------------------------------------------------------
    # INPUT co_rfifo.deliver_{q,p} - sync messages
    # ------------------------------------------------------------------

    def _eff_co_rfifo_deliver(self, q: ProcessId, p: ProcessId, m: WireMessage) -> None:
        if isinstance(m, SyncMsg):
            self.sync_msg.setdefault(q, {})[m.cid] = m
            self._index_sync(q, m)
        elif isinstance(m, AckMsg):
            if m.view_id == self.current_view.vid:
                self.acked[q] = dict(m.delivered)
                self._run_ack_gc()

    # ------------------------------------------------------------------
    # OUTPUT deliver_p(q, m) - restriction to agreed cuts
    # ------------------------------------------------------------------

    def _delivery_cut(self) -> Optional[Mapping[ProcessId, int]]:
        """The cut that bounds deliveries right now, or None if unbounded.

        Unbounded while no view change is in progress or before this
        end-point has committed to its own cut; bounded by the own cut
        before the membership view arrives, and by the max over the known
        transitional-set cuts afterwards (Figure 10).
        """
        change = self.start_change
        if change is None:
            return None
        own = self.sync_msg_for(self.pid, change.cid)
        if own is None:
            return None
        if self.mbrshp_view.start_ids.get(self.pid) != change.cid:
            return own.cut
        return self.agreed_cut

    def _delivery_limit(self, q: ProcessId) -> Optional[int]:
        """Max index deliverable from ``q`` right now, or None if unbounded."""
        cut = self._delivery_cut()
        return None if cut is None else cut.get(q, 0)

    def _pre_deliver(self, p: ProcessId, q: ProcessId, m: Any) -> bool:
        limit = self._delivery_limit(q)
        return limit is None or self.dlvrd(q) + 1 <= limit

    def _eff_deliver(self, p: ProcessId, q: ProcessId, m: Any) -> None:
        if self.ack_gc_interval is not None:
            self.deliveries_since_ack += 1

    def _candidates_deliver(self) -> Iterable[Tuple[ProcessId, ProcessId, Any]]:
        if not self.deliverable:
            return  # nothing ready: a quiet drain skips the cut as well
        cut = self._delivery_cut()  # one answer for the whole scan
        for candidate in super()._candidates_deliver():
            if cut is None or self.dlvrd(candidate[1]) + 1 <= cut.get(candidate[1], 0):
                yield candidate

    # ------------------------------------------------------------------
    # OUTPUT view_p(v, T)
    # ------------------------------------------------------------------

    def _pre_view(self, p: ProcessId, v: View, T: FrozenSet[ProcessId]) -> bool:
        change = self.start_change
        # "to prevent delivery of obsolete views"
        if change is None or v.start_ids.get(self.pid) != change.cid:
            return False
        # The parent's conjunct demands v == mbrshp_view: the view whose
        # transitional set and agreed cut (the pointwise max over T's
        # sync cuts) the index holds, built once as the syncs arrived.
        if v != self.mbrshp_view or self.syncs_missing:
            return False
        if frozenset(T) != frozenset(self.transitional):
            return False
        agreed = self.agreed_cut
        for q in self.current_view.members:
            if self.dlvrd(q) != agreed.get(q, 0):
                return False
        return True

    def _eff_view(self, p: ProcessId, v: View, T: FrozenSet[ProcessId]) -> None:
        self.start_change = None
        self.widened = None
        self.acked = {}
        self.deliveries_since_ack = 0
        if self.gc_views:
            self._collect_garbage(v)
        self.view_syncs = dict(self.latest_sync_msgs_in_view(v))
        self._index_lagging()
        self.transitional, self.agreed_cut, self.syncs_missing = self._scan_syncs(v, v)

    def _candidates_view(self) -> Iterable[Tuple[ProcessId, View, FrozenSet[ProcessId]]]:
        v = self.mbrshp_view
        if v is self.current_view or v.vid <= self.current_view.vid:
            return
        expected = self.transitional_set_for(v)
        if expected is not None:
            yield (self.pid, v, expected)

    # ------------------------------------------------------------------
    # garbage collection (the paper's Section 5.1 closing remark)
    # ------------------------------------------------------------------

    def _run_ack_gc(self) -> None:
        """Discard message prefixes acknowledged by every view member.

        A message everyone in the view has delivered can never again be
        needed: deliveries are done, and any future cut or forwarding
        request concerns strictly later indices (cuts are at least each
        member's delivered count).
        """
        if self.ack_gc_interval is None:
            return
        view = self.current_view
        others = view.members - {self.pid}
        if not all(member in self.acked for member in others):
            return  # need a full round of acknowledgements first
        for q in view.members:
            log = self.peek_buffer(q, view)
            if log is None:
                continue
            floor = min(
                [self.dlvrd(q)] + [self.acked[m].get(q, 0) for m in others]
            )
            log.truncate_through(floor)

    def buffered_messages(self) -> int:
        """Messages currently retained across all buffers (a memory metric)."""
        return sum(
            log.retained()
            for buffers in self.msgs.values()
            for log in buffers.values()
        )

    def _collect_garbage(self, new_view: View) -> None:  # repro: allow[R2.parent-write]
        """Discard buffers, syncs and forwarding records of finished views.

        The abstract algorithm never frees memory; any real implementation
        must.  Safe once a view is delivered: older views' messages can no
        longer be delivered or forwarded by this end-point.  Deliberate
        exception to the ownership rule of [26] (pruning the parent's
        ``msgs`` is a write to ancestor state), hence the allow above.
        """
        for q in list(self.msgs):
            buffers = self.msgs[q]
            for view in list(buffers):
                if view != new_view:
                    del buffers[view]
            if not buffers:
                del self.msgs[q]
        for q in list(self.sync_msg):
            watermark = new_view.start_ids.get(q)
            if watermark is None:
                continue
            by_cid = self.sync_msg[q]
            for cid in list(by_cid):
                if cid <= watermark:
                    del by_cid[cid]
            if not by_cid:
                del self.sync_msg[q]
        self.forwarded_set = {
            entry for entry in self.forwarded_set if entry[2] == new_view
        }
        self.compact_sync_sent = {
            cid for cid in self.compact_sync_sent
            if cid > new_view.start_ids.get(self.pid, -1)
        }
