"""The within-view reliable FIFO multicast end-point, Figure 9.

``WvRfifoEndpoint`` is the base layer of the algorithm stack.  It
forwards membership views to the application unchanged (preserving Local
Monotonicity and Self Inclusion), and synchronises message delivery with
views by threading ``view_msg`` markers through the FIFO message stream:
an application message received from ``q`` belongs to the view announced
by the latest ``view_msg`` from ``q``, and is delivered to the
application only while that view is current.

The marker is lazy: ``co_rfifo.send(set, view_msg)`` also waits for an
application message of the current view to send (:meth:`app_msg_waits`),
so a view's marker leaves just ahead of its first ``AppMsg`` and a view
in which ``p`` sends nothing is never announced.  A stronger
precondition on a locally controlled output only removes executions;
docs/PROOFS.md states why the marker task stays fair.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro._collections import MessageLog
from repro.core.endpoint_base import ProcessAutomaton
from repro.core.messages import AppMsg, FwdMsg, ViewMsg, WireMessage
from repro.ioa import ActionKind
from repro.types import ProcessId, View, initial_view


class WvRfifoEndpoint(ProcessAutomaton):
    """WV_RFIFO_p (Figure 9)."""

    SIGNATURE = {
        # inputs
        "send": ActionKind.INPUT,  # (p, m)
        "co_rfifo.deliver": ActionKind.INPUT,  # (q, p, m)
        "mbrshp.view": ActionKind.INPUT,  # (p, v)
        # outputs
        "deliver": ActionKind.OUTPUT,  # (p, q, m)
        "co_rfifo.send": ActionKind.OUTPUT,  # (p, set, m)
        "co_rfifo.reliable": ActionKind.OUTPUT,  # (p, set)
        "view": ActionKind.OUTPUT,  # (p, v) - extended to (p, v, T) by the child
    }

    # The drain barrier the runner enforces (earlier first) and R5 checks
    # against: reliable-set updates unlock sync sends, sends advance
    # last_sent before self-delivery, and deliveries must reach the
    # agreed cut before the view goes out.  Inherited by the whole
    # endpoint stack (Vs/Gcs and the baselines), whose added outputs
    # (block) slot in between.
    ORDERING = ("co_rfifo.reliable", "block", "co_rfifo.send", "deliver", "view")

    def _state(self) -> None:
        pid = self.pid
        # msgs[q][v]: messages sent by q in view v (1-indexed, may have holes)
        self.msgs: Dict[ProcessId, Dict[View, MessageLog]] = {}
        self.last_sent = 0
        self.last_rcvd: Dict[ProcessId, int] = {}
        self.last_dlvrd: Dict[ProcessId, int] = {}
        self.current_view: View = initial_view(pid)
        self.mbrshp_view: View = initial_view(pid)
        self.view_msg: Dict[ProcessId, View] = {}
        self.reliable_set: FrozenSet[ProcessId] = frozenset({pid})
        # The delivery index: the senders q of current_view whose
        # msgs[q][current_view] holds index dlvrd(q) + 1 - what
        # _candidates_deliver would otherwise rescan every buffer for.
        # Written only by this class's effects (_index_deliverable).
        self.deliverable: Set[ProcessId] = set()

    # -- state helpers ------------------------------------------------------

    def buffer(self, q: ProcessId, v: View) -> MessageLog:
        """The paper's ``msgs[q][v]``, created on demand (and only then
        allocated: this runs for every message on the general path)."""
        msgs = self.msgs
        if q not in msgs:
            msgs[q] = {}
        buffers = msgs[q]
        if v not in buffers:
            buffers[v] = MessageLog()
        return buffers[v]

    def peek_buffer(self, q: ProcessId, v: View) -> Optional[MessageLog]:
        return self.msgs.get(q, {}).get(v)

    def view_msg_of(self, q: ProcessId) -> View:
        """Latest ``view_msg`` received from ``q`` (initially ``v_q``, built
        only when nothing was received: this runs on every drain)."""
        view = self.view_msg.get(q)
        return view if view is not None else initial_view(q)

    def dlvrd(self, q: ProcessId) -> int:
        return self.last_dlvrd.get(q, 0)

    def rcvd(self, q: ProcessId) -> int:
        return self.last_rcvd.get(q, 0)

    def app_msg_waits(self) -> bool:
        """An application message of the current view waits to be sent:
        ``msgs[p][current_view]`` holds ``last_sent + 1`` - the conjunct
        that makes the view marker lazy."""
        log = self.peek_buffer(self.pid, self.current_view)
        return log is not None and log.has(self.last_sent + 1)

    def _index_deliverable(self, q: Optional[ProcessId] = None) -> None:
        """Re-derive ``q``'s entry in ``deliverable`` after its buffer or
        delivered count moved - or every entry, when ``current_view`` did."""
        if q is None:
            self.deliverable = set()
            for sender in self.msgs:
                self._index_deliverable(sender)
            return
        view = self.current_view
        log = self.peek_buffer(q, view)
        if log is not None and q in view.members and log.has(self.dlvrd(q) + 1):
            self.deliverable.add(q)
        else:
            self.deliverable.discard(q)

    # ------------------------------------------------------------------
    # INPUT mbrshp.view_p(v)
    # ------------------------------------------------------------------

    def _eff_mbrshp_view(self, p: ProcessId, v: View) -> None:
        self.mbrshp_view = v

    # ------------------------------------------------------------------
    # OUTPUT view_p(v)
    # ------------------------------------------------------------------

    def _pre_view(self, p: ProcessId, v: View) -> bool:
        return v == self.mbrshp_view and v.vid > self.current_view.vid

    def _eff_view(self, p: ProcessId, v: View) -> None:
        self.current_view = v
        self.last_sent = 0
        self.last_dlvrd = {}
        self._index_deliverable()

    def _candidates_view(self) -> Iterable[Tuple[ProcessId, View]]:
        # Identity first: after the view fires, current_view IS the
        # mbrshp_view object it was found enabled with.
        v = self.mbrshp_view
        if v is not self.current_view and v.vid > self.current_view.vid:
            yield (self.pid, v)

    # ------------------------------------------------------------------
    # INPUT send_p(m)
    # ------------------------------------------------------------------

    def _eff_send(self, p: ProcessId, m: Any) -> None:
        self.buffer(self.pid, self.current_view).append(m)
        self._index_deliverable(self.pid)

    # ------------------------------------------------------------------
    # OUTPUT deliver_p(q, m)
    # ------------------------------------------------------------------

    def _pre_deliver(self, p: ProcessId, q: ProcessId, m: Any) -> bool:
        log = self.peek_buffer(q, self.current_view)
        if log is None:
            return False
        index = self.dlvrd(q) + 1
        if not log.has(index) or log.get(index) != m:
            return False
        if q == self.pid and not self.dlvrd(q) < self.last_sent:
            return False
        return True

    def _eff_deliver(self, p: ProcessId, q: ProcessId, m: Any) -> None:
        self.last_dlvrd[q] = self.dlvrd(q) + 1
        self._index_deliverable(q)

    def _candidates_deliver(self) -> Iterable[Tuple[ProcessId, ProcessId, Any]]:
        # Read the delivery index, not the buffers: a drain with nothing
        # deliverable (most drains of a view change) costs O(1), whatever
        # the number of senders with a buffered log.  Yields in the order
        # of msgs (buffer creation, deterministic), as the rescan
        # naive_candidates_deliver does.
        ready = self.deliverable
        if not ready:
            return
        view = self.current_view
        delivered = self.last_dlvrd
        msgs = self.msgs
        for q in ready if len(ready) == 1 else [q for q in msgs if q in ready]:
            yield (self.pid, q, msgs[q][view].get(delivered.get(q, 0) + 1))

    # ------------------------------------------------------------------
    # OUTPUT co_rfifo.reliable_p(set)
    # ------------------------------------------------------------------

    def _pre_co_rfifo_reliable(self, p: ProcessId, targets: FrozenSet[ProcessId]) -> bool:
        return self.current_view.members <= frozenset(targets)

    def _eff_co_rfifo_reliable(self, p: ProcessId, targets: FrozenSet[ProcessId]) -> None:
        self.reliable_set = frozenset(targets)

    def _desired_reliable_set(self) -> FrozenSet[ProcessId]:
        """The set this layer wants reliable connections to (child widens)."""
        return frozenset(self.current_view.members)

    def _candidates_co_rfifo_reliable(self) -> Iterable[Tuple[ProcessId, FrozenSet[ProcessId]]]:
        desired = self._desired_reliable_set()
        # Identity first: frozenset equality has no identity shortcut in
        # CPython, and after the reliable action fires the stored set IS
        # the object the candidate yielded, so steady-state drains skip
        # the O(members) comparison.
        if desired is not self.reliable_set and desired != self.reliable_set:
            yield (self.pid, desired)

    # ------------------------------------------------------------------
    # OUTPUT co_rfifo.send_p(set, m) - view, app, and forwarded messages
    # ------------------------------------------------------------------

    def _pre_co_rfifo_send(self, p: ProcessId, targets: FrozenSet[ProcessId], m: WireMessage) -> bool:
        if isinstance(m, ViewMsg):
            return (
                self.view_msg_of(self.pid) != self.current_view
                and self.current_view.members <= self.reliable_set
                and frozenset(targets) == self.current_view.members - {self.pid}
                and m.view == self.current_view
                and self.app_msg_waits()
            )
        if isinstance(m, AppMsg):
            log = self.peek_buffer(self.pid, self.current_view)
            return (
                self.view_msg_of(self.pid) == self.current_view
                and frozenset(targets) == self.current_view.members - {self.pid}
                and log is not None
                and log.has(self.last_sent + 1)
                and log.get(self.last_sent + 1) == m.payload
            )
        if isinstance(m, FwdMsg):
            log = self.peek_buffer(m.origin, m.view)
            return log is not None and log.has(m.index) and log.get(m.index) == m.payload
        # Message kinds introduced by child automata (e.g. SyncMsg) are
        # *new* actions in the signature extension; this layer places no
        # precondition on them.
        return True

    def _eff_co_rfifo_send(self, p: ProcessId, targets: FrozenSet[ProcessId], m: WireMessage) -> None:
        if isinstance(m, ViewMsg):
            self.view_msg[self.pid] = self.current_view
        elif isinstance(m, AppMsg):
            self.last_sent += 1

    def _candidates_co_rfifo_send(self) -> Iterable[Tuple[ProcessId, FrozenSet[ProcessId], WireMessage]]:
        # Note: in a singleton view ``peers`` is empty, but the (no-op)
        # sends must still happen - sending is what advances ``last_sent``
        # and thereby enables self-delivery.  ``peers`` is built only on
        # the yielding paths: a quiet drain must not pay an O(members)
        # set difference just to find nothing to send.  The marker, like
        # the message, waits for an application message to send.
        if not self.app_msg_waits():
            return
        own = self.view_msg.get(self.pid)
        if own is not self.current_view and self.view_msg_of(self.pid) != self.current_view:
            if self.current_view.members <= self.reliable_set:
                peers = frozenset(self.current_view.members - {self.pid})
                yield (self.pid, peers, ViewMsg(self.current_view))
            return
        payload = self.msgs[self.pid][self.current_view].get(self.last_sent + 1)
        peers = frozenset(self.current_view.members - {self.pid})
        yield (
            self.pid,
            peers,
            AppMsg(payload, history_view=self.current_view, history_index=self.last_sent + 1),
        )

    # ------------------------------------------------------------------
    # INPUT co_rfifo.deliver_{q,p}(m)
    # ------------------------------------------------------------------

    def _eff_co_rfifo_deliver(self, q: ProcessId, p: ProcessId, m: WireMessage) -> None:
        if isinstance(m, ViewMsg):
            self.view_msg[q] = m.view
            self.last_rcvd[q] = 0
        elif isinstance(m, AppMsg):
            index = self.rcvd(q) + 1
            self.buffer(q, self.view_msg_of(q)).put(index, m.payload)
            self.last_rcvd[q] = index
            self._index_deliverable(q)
        elif isinstance(m, FwdMsg):
            self.buffer(m.origin, m.view).put(m.index, m.payload)
            self._index_deliverable(m.origin)


def naive_candidates_deliver(ep: WvRfifoEndpoint) -> Iterable[Tuple[ProcessId, ProcessId, Any]]:
    """Test-only oracle: the full buffer rescan ``deliverable`` replaced."""
    view = ep.current_view
    for q, buffers in ep.msgs.items():
        if q not in view.members:
            continue
        log = buffers.get(view)
        if log is None:
            continue
        index = ep.dlvrd(q) + 1
        if log.has(index):
            yield (ep.pid, q, log.get(index))
