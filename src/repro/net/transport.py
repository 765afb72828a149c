"""Per-process CO_RFIFO transport over the simulated network.

``SimTransport`` gives each process the interface the GCS end-point
expects from the connection-oriented reliable FIFO service of Figure 3:

* ``send(targets, message)`` - FIFO multicast;
* ``set_reliable(targets)`` - declare to whom gap-free delivery must be
  maintained (messages to them are buffered across partitions and
  retransmitted after a heal); to anyone else, a partition may drop an
  arbitrary suffix - exactly CO_RFIFO's ``lose`` action.

Internally each destination has two queues: ``retransmit`` (messages
bounced back by the network when a partition cut the link; they precede
everything) and ``pending`` (messages that could not even be handed to
the network).  The pump drains retransmit-then-pending whenever the link
is up, preserving per-destination FIFO without gaps.

A process owns one transport however many groups it joins (paper
Section 1).  The default group uses it bare; a named group reaches it
through :meth:`SimTransport.channel`, which tags every message with a
:class:`GroupEnvelope`, hands inbound envelopes to the group's own
handler, and keeps the transport reliable to the union of what its
groups ask for - being more reliable than one group asks is the safe
direction of the CO_RFIFO contract.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.membership.protocol import GroupEnvelope
from repro.net.network import SimNetwork
from repro.types import ProcessId

ReceiveHandler = Callable[[ProcessId, Any], None]


class SimTransport:
    """CO_RFIFO client endpoint for one simulated process."""

    def __init__(
        self,
        pid: ProcessId,
        network: SimNetwork,
        on_receive: Optional[ReceiveHandler] = None,
    ) -> None:
        self.pid = pid
        self.network = network
        self.on_receive = on_receive
        self.reliable_set: FrozenSet[ProcessId] = frozenset({pid})
        # What each group asked to keep reliable (None: the default
        # group) and the inbound handler of each named group.
        self._shares: Dict[Optional[str], FrozenSet[ProcessId]] = {}
        self._channels: Dict[str, ReceiveHandler] = {}
        self._retransmit: Dict[ProcessId, Deque[Any]] = {}
        self._pending: Dict[ProcessId, Deque[Any]] = {}
        self.crashed = False
        network.register(pid, self._handle_delivery, self._handle_bounce)
        network.on_topology_change(self._pump_all)

    # ------------------------------------------------------------------
    # the CO_RFIFO client interface
    # ------------------------------------------------------------------

    def send(self, targets: Iterable[ProcessId], message: Any) -> None:
        """FIFO multicast ``message`` to every process in ``targets``.

        Fan-out is in sorted order: ``targets`` is usually a frozenset,
        and iterating it directly would make same-instant delivery order
        depend on the interpreter's hash seed (traces must replay
        byte-for-byte across processes).
        """
        if self.crashed:
            return
        for dst in sorted(targets):
            if dst == self.pid:
                continue
            if self._queues_empty(dst) and self.network.send(self.pid, dst, message):
                continue
            if dst in self.reliable_set or self.network.connected(self.pid, dst):
                self._pending.setdefault(dst, deque()).append(message)
                self._pump(dst)
            # else: destination is neither reliable nor connected - the
            # suffix is lost (CO_RFIFO.lose).

    def set_reliable(
        self, targets: Iterable[ProcessId], group: Optional[str] = None
    ) -> None:
        """Declare ``group``'s reliable set; may drop suffixes to peers
        no group keeps reliable any more."""
        self._shares[group] = frozenset(targets)
        self.reliable_set = frozenset().union(*self._shares.values())
        for dst in list(self._pending):
            if dst not in self.reliable_set and not self.network.connected(self.pid, dst):
                del self._pending[dst]
        for dst in list(self._retransmit):
            if dst not in self.reliable_set and not self.network.connected(self.pid, dst):
                del self._retransmit[dst]

    def channel(
        self, group: str, on_receive: ReceiveHandler
    ) -> Tuple[Callable[..., None], Callable[..., None]]:
        """The ``(send, set_reliable)`` pair of the named ``group``.

        Inbound envelopes tagged ``group`` go to ``on_receive``; one for
        a group this process never opened a channel for is dropped.
        """
        self._channels[group] = on_receive
        return (
            lambda targets, message: self.send(targets, GroupEnvelope(group, message)),
            lambda targets: self.set_reliable(targets, group),
        )

    def groups(self) -> List[str]:
        """The named groups with a channel here, sorted."""
        return sorted(self._channels)

    # ------------------------------------------------------------------
    # crash / recovery (Section 8)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        self.crashed = True
        self.reliable_set = frozenset()
        self._shares.clear()
        self._pending.clear()
        self._retransmit.clear()

    def recover(self) -> None:
        self.crashed = False
        self.reliable_set = frozenset({self.pid})

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _queues_empty(self, dst: ProcessId) -> bool:
        return not self._retransmit.get(dst) and not self._pending.get(dst)

    def _handle_delivery(self, src: ProcessId, message: Any) -> None:
        if self.crashed:
            return
        if self._channels and isinstance(message, GroupEnvelope):
            handler = self._channels.get(message.group)
            if handler is not None:
                handler(src, message.message)
        elif self.on_receive is not None:
            self.on_receive(src, message)

    def _handle_bounce(self, dst: ProcessId, message: Any) -> None:
        """The network failed to transmit ``message`` (partition mid-flight).

        Bounces arrive in original send order, so appending to the
        retransmit queue preserves FIFO.
        """
        if self.crashed:
            return
        if dst in self.reliable_set:
            self._retransmit.setdefault(dst, deque()).append(message)
        # else: lost - dst is outside the reliable set.

    def _pump(self, dst: ProcessId) -> None:
        if self.crashed or not self.network.connected(self.pid, dst):
            return
        retransmit = self._retransmit.get(dst)
        while retransmit:
            if not self.network.send(self.pid, dst, retransmit[0]):
                return
            retransmit.popleft()
        pending = self._pending.get(dst)
        while pending:
            if not self.network.send(self.pid, dst, pending[0]):
                return
            pending.popleft()

    def _pump_all(self) -> None:
        # Sorted: pump order is send order, which feeds the fault
        # injector's RNG stream (no hash-seed leaks into replays).
        for dst in sorted(set(self._retransmit) | set(self._pending)):
            self._pump(dst)

    def backlog(self, dst: ProcessId) -> int:
        """Messages queued (not yet on the wire) towards ``dst``."""
        return len(self._retransmit.get(dst, ())) + len(self._pending.get(dst, ()))
