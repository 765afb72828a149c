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
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, Iterable, Optional

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

    def set_reliable(self, targets: Iterable[ProcessId]) -> None:
        """Declare the reliable set; may drop suffixes to dropped peers."""
        self.reliable_set = frozenset(targets)
        for dst in list(self._pending):
            if dst not in self.reliable_set and not self.network.connected(self.pid, dst):
                del self._pending[dst]
        for dst in list(self._retransmit):
            if dst not in self.reliable_set and not self.network.connected(self.pid, dst):
                del self._retransmit[dst]

    # ------------------------------------------------------------------
    # crash / recovery (Section 8)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        self.crashed = True
        self.reliable_set = frozenset()
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
        if self.on_receive is not None:
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
