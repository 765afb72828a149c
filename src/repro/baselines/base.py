"""Baseline: sequential virtual synchrony (no parallel round).

``SequentialVsEndpoint`` provides the same service semantics as the
paper's GCS (within-view FIFO, Virtual Synchrony, Transitional Sets, Self
Delivery) but with the *traditional* timing the paper improves upon: the
synchronization round starts only **after** the membership view has been
delivered, using the view identifier as the globally agreed tag for
synchronization messages.  The paper's contribution is precisely avoiding
this serialisation, so this endpoint is the ablation baseline for the
parallelism experiments (E1/E3).

It reuses the within-view layer (Figure 9) unchanged and the simple
forwarding strategy of Section 5.2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro._collections import frozendict
from repro.core.forwarding import ForwardingStrategy, SimpleStrategy, cut_gaps
from repro.core.messages import SyncMsg, WireMessage
from repro.core.wv_endpoint import WvRfifoEndpoint
from repro.ioa import ActionKind
from repro.spec.client import BlockStatus
from repro.types import Cut, ProcessId, StartChange, StartChangeId, View


@dataclass(frozen=True)
class BaselineSyncMsg(WireMessage):
    """A synchronization message tagged with a globally agreed identifier."""

    tag: Hashable
    view: View
    cut: Cut


class SequentialVsEndpoint(WvRfifoEndpoint):
    """VS+TS+SD with the sync round serialised after the membership round."""

    SIGNATURE = {
        "mbrshp.start_change": ActionKind.INPUT,  # (p, cid, set)
        "block_ok": ActionKind.INPUT,  # (p,)
        "block": ActionKind.OUTPUT,  # (p,)
        "view": ActionKind.OUTPUT,  # (p, v, T)
    }

    PARAM_PROJECTIONS = {
        "view": lambda p, v, T: (p, v),
    }

    def __init__(
        self,
        pid: ProcessId,
        *,
        forwarding: Optional[ForwardingStrategy] = None,
        gc_views: bool = False,
        **kwargs: Any,
    ) -> None:
        self.forwarding = forwarding or SimpleStrategy()
        self.gc_views = gc_views
        super().__init__(pid, **kwargs)

    def _state(self) -> None:
        self.start_change: Optional[StartChange] = None
        # sync_store[q][tag] -> BaselineSyncMsg
        self.sync_store: Dict[ProcessId, Dict[Hashable, BaselineSyncMsg]] = {}
        self.block_status = BlockStatus.UNBLOCKED
        self.forwarded_set: set = set()

    # ------------------------------------------------------------------
    # tag selection - the serialisation point this baseline embodies
    # ------------------------------------------------------------------

    def pending_view(self) -> Optional[View]:
        if self.mbrshp_view.vid > self.current_view.vid:
            return self.mbrshp_view
        return None

    def sync_tag(self, view: View) -> Optional[Hashable]:
        """The agreed identifier for syncs towards ``view`` (None: unknown).

        The sequential baseline uses the view identifier itself - already
        globally unique and agreed, but only available once the membership
        round has completed.
        """
        return ("vid", view.vid)

    # ------------------------------------------------------------------
    # sync-message bookkeeping (shared with the two-round child)
    # ------------------------------------------------------------------

    def stored_sync(self, q: ProcessId, tag: Hashable) -> Optional[BaselineSyncMsg]:
        return self.sync_store.get(q, {}).get(tag)

    def own_sync_msg(self) -> Optional[BaselineSyncMsg]:
        view = self.pending_view()
        if view is None:
            return None
        tag = self.sync_tag(view)
        if tag is None:
            return None
        return self.stored_sync(self.pid, tag)

    def latest_sync_msgs_in_view(self, view: View) -> List[Tuple[ProcessId, BaselineSyncMsg]]:
        result = []
        for q, by_tag in self.sync_store.items():
            in_view = [m for m in by_tag.values() if m.view == view]
            if in_view:
                result.append((q, in_view[-1]))
        return result

    def lagging_peers(self) -> List[Tuple[ProcessId, Dict[ProcessId, int]]]:
        """Who misses what of the own cut - rescanned on every call: the
        ablation baseline keeps no reconfiguration index."""
        own = self.own_sync_msg()
        gaps = ((q, cut_gaps(own.cut, m.cut)) for q, m in self.latest_sync_msgs_in_view(own.view))
        return [(q, missing) for q, missing in gaps if missing]

    def holds_message(self, origin: ProcessId, view: View, index: int) -> bool:
        log = self.peek_buffer(origin, view)
        return log is not None and log.has(index)

    def local_cut(self) -> Cut:
        view = self.current_view
        bindings = {}
        for q in view.members:
            log = self.peek_buffer(q, view)
            bindings[q] = log.longest_prefix() if log is not None else 0
        return frozendict(bindings)

    def transitional_set_for(self, v: View) -> Optional[FrozenSet[ProcessId]]:
        tag = self.sync_tag(v)
        if tag is None:
            return None
        members = []
        for q in v.members & self.current_view.members:
            sync = self.stored_sync(q, tag)
            if sync is None:
                return None
            if sync.view == self.current_view:
                members.append(q)
        return frozenset(members)

    # ------------------------------------------------------------------
    # INPUT mbrshp.start_change / block_ok
    # ------------------------------------------------------------------

    def _eff_mbrshp_start_change(self, p: ProcessId, cid: StartChangeId, members: FrozenSet[ProcessId]) -> None:
        # Only used to widen the reliable set early; no sync is sent yet.
        self.start_change = StartChange(cid, frozenset(members))

    def _eff_block_ok(self, p: ProcessId) -> None:
        self.block_status = BlockStatus.BLOCKED

    # ------------------------------------------------------------------
    # OUTPUT block_p() - requested once the new view is known
    # ------------------------------------------------------------------

    def _pre_block(self, p: ProcessId) -> bool:
        return self.pending_view() is not None and self.block_status is BlockStatus.UNBLOCKED

    def _eff_block(self, p: ProcessId) -> None:
        self.block_status = BlockStatus.REQUESTED

    def _candidates_block(self) -> Iterable[Tuple[ProcessId]]:
        if self.pending_view() is not None and self.block_status is BlockStatus.UNBLOCKED:
            yield (self.pid,)

    # ------------------------------------------------------------------
    # OUTPUT co_rfifo.reliable_p(set)
    # ------------------------------------------------------------------

    def _desired_reliable_set(self) -> FrozenSet[ProcessId]:
        desired = set(self.current_view.members)
        pending = self.pending_view()
        if pending is not None:
            desired |= pending.members
        if self.start_change is not None:
            desired |= self.start_change.members
        return frozenset(desired)

    # ------------------------------------------------------------------
    # OUTPUT co_rfifo.send - baseline sync messages and forwarding
    # ------------------------------------------------------------------

    def _sync_send_ready(self) -> bool:
        view = self.pending_view()
        if view is None or self.block_status is not BlockStatus.BLOCKED:
            return False
        tag = self.sync_tag(view)
        return (
            tag is not None
            and view.members <= self.reliable_set
            and self.stored_sync(self.pid, tag) is None
        )

    def _pre_co_rfifo_send(self, p: ProcessId, targets: FrozenSet[ProcessId], m: WireMessage) -> bool:
        if isinstance(m, BaselineSyncMsg):
            view = self.pending_view()
            return (
                self._sync_send_ready()
                and view is not None
                and m.tag == self.sync_tag(view)
                and frozenset(targets) == view.members - {self.pid}
                and m.view == self.current_view
                and m.cut == self.local_cut()
            )
        return True

    def _eff_co_rfifo_send(self, p: ProcessId, targets: FrozenSet[ProcessId], m: WireMessage) -> None:
        if isinstance(m, BaselineSyncMsg):
            self.sync_store.setdefault(self.pid, {})[m.tag] = m
        from repro.core.messages import FwdMsg

        if isinstance(m, FwdMsg):
            for q in targets:
                self.forwarded_set.add((q, m.origin, m.view, m.index))

    def _candidates_co_rfifo_send(self) -> Iterable[Tuple[ProcessId, FrozenSet[ProcessId], WireMessage]]:
        yield from super()._candidates_co_rfifo_send()
        if self._sync_send_ready():
            view = self.pending_view()
            yield (
                self.pid,
                frozenset(view.members - {self.pid}),
                BaselineSyncMsg(self.sync_tag(view), self.current_view, self.local_cut()),
            )
        from repro.core.messages import FwdMsg

        for targets, origin, view, index in self.forwarding.candidates(self):
            log = self.peek_buffer(origin, view)
            if log is not None and log.has(index):
                yield (self.pid, targets, FwdMsg(origin, view, index, log.get(index)))

    # ------------------------------------------------------------------
    # INPUT co_rfifo.deliver - store peers' syncs
    # ------------------------------------------------------------------

    def _eff_co_rfifo_deliver(self, q: ProcessId, p: ProcessId, m: WireMessage) -> None:
        if isinstance(m, BaselineSyncMsg):
            self.sync_store.setdefault(q, {})[m.tag] = m

    # ------------------------------------------------------------------
    # OUTPUT deliver - cut restriction during a pending change
    # ------------------------------------------------------------------

    def _delivery_limit(self, q: ProcessId) -> Optional[int]:
        view = self.pending_view()
        if view is None:
            return None
        tag = self.sync_tag(view)
        if tag is None or self.stored_sync(self.pid, tag) is None:
            return None
        limit = 0
        for r in view.members & self.current_view.members:
            sync = self.stored_sync(r, tag)
            if sync is not None and sync.view == self.current_view:
                limit = max(limit, sync.cut.get(q, 0))
        return limit

    def _pre_deliver(self, p: ProcessId, q: ProcessId, m: Any) -> bool:
        limit = self._delivery_limit(q)
        return limit is None or self.dlvrd(q) + 1 <= limit

    def _candidates_deliver(self) -> Iterable[Tuple[ProcessId, ProcessId, Any]]:
        for candidate in super()._candidates_deliver():
            _p, q, _m = candidate
            limit = self._delivery_limit(q)
            if limit is None or self.dlvrd(q) + 1 <= limit:
                yield candidate

    # ------------------------------------------------------------------
    # OUTPUT view_p(v, T)
    # ------------------------------------------------------------------

    def _pre_view(self, p: ProcessId, v: View, T: FrozenSet[ProcessId]) -> bool:
        expected = self.transitional_set_for(v)
        if expected is None or frozenset(T) != expected:
            return False
        tag = self.sync_tag(v)
        cuts = [self.stored_sync(r, tag).cut for r in expected]
        for q in self.current_view.members:
            agreed = max((cut.get(q, 0) for cut in cuts), default=0)
            if self.dlvrd(q) != agreed:
                return False
        return True

    def _eff_view(self, p: ProcessId, v: View, T: FrozenSet[ProcessId]) -> None:
        self.block_status = BlockStatus.UNBLOCKED
        self.start_change = None
        if self.gc_views:
            # repro: allow[R2.parent-write] - view GC prunes the parent's
            # buffers; memory reclamation has no counterpart in [26].
            self.msgs = {
                q: {view: log for view, log in buffers.items() if view == v}
                for q, buffers in self.msgs.items()
            }
            self.sync_store = {}
            self.forwarded_set = set()

    def _candidates_view(self) -> Iterable[Tuple[ProcessId, View, FrozenSet[ProcessId]]]:
        v = self.pending_view()
        if v is None:
            return
        expected = self.transitional_set_for(v)
        if expected is not None:
            yield (self.pid, v, expected)
