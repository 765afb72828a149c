"""Within-view reliable FIFO multicast specification, Figure 4.

WV_RFIFO : SPEC is a centralized automaton with per-(sender, view)
message queues.  It captures three guarantees at once: views preserve
Local Monotonicity and Self Inclusion; every message is delivered in the
view in which it was sent; and per-sender delivery within a view is
gap-free FIFO.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.ioa import ActionKind, Automaton
from repro.types import ProcessId, View, initial_view


class WvRfifoSpec(Automaton):
    """WV_RFIFO : SPEC (Figure 4).

    The ``view`` action carries ``(p, v, T)`` - the transitional-set
    parameter added by the TRANS_SET layer rides along unused here, so a
    single trace can be replayed through every spec in the stack.
    """

    SIGNATURE = {
        "send": ActionKind.INPUT,  # (p, m)
        "deliver": ActionKind.OUTPUT,  # (p, q, m)  receiver, sender
        # repro: allow[R3.missing-candidates] - trace-checked spec; the
        # implementation trace drives it, never enabled_actions().
        "view": ActionKind.OUTPUT,  # (p, v, T)
    }

    def __init__(self, processes: Iterable[ProcessId], name: str = "wv_rfifo_spec", **kwargs: Any) -> None:
        self.processes: Tuple[ProcessId, ...] = tuple(sorted(set(processes)))
        super().__init__(name, **kwargs)

    def _state(self) -> None:
        # msgs[p][v]: messages sent by p in view v, in send order.
        self.msgs: Dict[ProcessId, Dict[View, List[Any]]] = {p: {} for p in self.processes}
        # last_dlvrd[(q, p)]: index of the last message from q delivered to
        # p in p's current view (paper: last_dlvrd[q][p]).
        self.last_dlvrd: Dict[Tuple[ProcessId, ProcessId], int] = {
            (q, p): 0 for q in self.processes for p in self.processes
        }
        self.current_view: Dict[ProcessId, View] = {p: initial_view(p) for p in self.processes}

    # -- helpers ------------------------------------------------------------

    def _queue(self, p: ProcessId, v: View) -> List[Any]:
        return self.msgs[p].setdefault(v, [])

    # -- send_p(m) ------------------------------------------------------------

    def _eff_send(self, p: ProcessId, m: Any) -> None:
        self._queue(p, self.current_view[p]).append(m)

    # -- deliver_p(q, m) ---------------------------------------------------------

    def _pre_deliver(self, p: ProcessId, q: ProcessId, m: Any) -> bool:
        queue = self.msgs[q].get(self.current_view[p], [])
        index = self.last_dlvrd[(q, p)]  # 0-based next == index
        return index < len(queue) and queue[index] == m

    def _eff_deliver(self, p: ProcessId, q: ProcessId, m: Any) -> None:
        self.last_dlvrd[(q, p)] += 1

    def _candidates_deliver(self) -> Iterable[Tuple[ProcessId, ProcessId, Any]]:
        for p in self.processes:
            view = self.current_view[p]
            for q in self.processes:
                queue = self.msgs[q].get(view, [])
                index = self.last_dlvrd[(q, p)]
                if index < len(queue):
                    yield (p, q, queue[index])

    # -- view_p(v) -----------------------------------------------------------------

    def _pre_view(self, p: ProcessId, v: View, T: Any = None) -> bool:
        return self.includes_self(p, v) and v.vid > self.current_view[p].vid

    # A conjunct named so a trace replay can say it refused a step.

    def includes_self(self, p: ProcessId, v: View, T: Any = None) -> bool:
        """Self Inclusion: ``p`` is a member of ``v``."""
        return p in v.members

    def _eff_view(self, p: ProcessId, v: View, T: Any = None) -> None:
        for q in self.processes:
            self.last_dlvrd[(q, p)] = 0
        self.current_view[p] = v
