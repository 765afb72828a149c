"""Connection-oriented reliable FIFO multicast specification, Figure 3.

The centralized CO_RFIFO automaton keeps a FIFO ``channel[p][q]`` per
ordered process pair.  ``reliable_p(set)`` declares to whom ``p`` wants
gap-free connections; messages to anyone else may lose an arbitrary
suffix (the ``lose`` internal action).  ``live_p(set)`` records the
*actual* network situation and only shapes the fairness (task) structure:
messages to live destinations must eventually be delivered.

Per Figure 8, the membership outputs may be linked to the ``live`` input
(``start_change_p(id, set)`` => ``live_p(set)``, ``view_p(v)`` =>
``live_p(v.set)``); pass ``link_membership=True`` to enable the linkage.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, Iterable, Tuple

from repro.ioa import Action, ActionKind, Automaton
from repro.types import ProcessId, View


# repro: allow[R5] - the deliver/lose choice on a channel IS the Figure 3
# nondeterminism: an unreliable channel either delivers the head or drops
# it, and schedulers are meant to explore both orders.
class CoRfifoSpec(Automaton):
    """The CO_RFIFO specification automaton (Figure 3)."""

    SIGNATURE = {
        "co_rfifo.send": ActionKind.INPUT,  # (p, set, m)
        "co_rfifo.reliable": ActionKind.INPUT,  # (p, set)
        "co_rfifo.live": ActionKind.INPUT,  # (p, set)
        "co_rfifo.deliver": ActionKind.OUTPUT,  # (p, q, m)   sender, receiver
        "co_rfifo.lose": ActionKind.INTERNAL,  # (p, q)
        "crash": ActionKind.INPUT,  # (p,)
    }

    # The Figure 8 membership linkage: instances accept the membership
    # outputs as extra inputs only when link_membership is requested.
    OPTIONAL_SIGNATURE = {
        "mbrshp.start_change": ActionKind.INPUT,  # (p, cid, set)
        "mbrshp.view": ActionKind.INPUT,  # (p, v)
    }

    def __init__(
        self,
        processes: Iterable[ProcessId],
        name: str = "co_rfifo",
        *,
        link_membership: bool = False,
        **kwargs: Any,
    ) -> None:
        self.processes: Tuple[ProcessId, ...] = tuple(sorted(set(processes)))
        super().__init__(name, **kwargs)
        if link_membership:
            # Accept the membership outputs as extra inputs (Figure 8).
            self.enable_optional_actions("mbrshp.start_change", "mbrshp.view")

    def _state(self) -> None:
        self.channel: Dict[Tuple[ProcessId, ProcessId], Deque[Any]] = {
            (p, q): deque() for p in self.processes for q in self.processes
        }
        self.reliable_set: Dict[ProcessId, FrozenSet[ProcessId]] = {
            p: frozenset({p}) for p in self.processes
        }
        self.live_set: Dict[ProcessId, FrozenSet[ProcessId]] = {
            p: frozenset({p}) for p in self.processes
        }

    # -- send_p(set, m) ---------------------------------------------------

    def _eff_co_rfifo_send(self, p: ProcessId, targets: FrozenSet[ProcessId], m: Any) -> None:
        for q in targets:
            self.channel[(p, q)].append(m)

    # -- reliable_p(set) / live_p(set) -------------------------------------

    def _eff_co_rfifo_reliable(self, p: ProcessId, targets: FrozenSet[ProcessId]) -> None:
        self.reliable_set[p] = frozenset(targets)

    def _eff_co_rfifo_live(self, p: ProcessId, targets: FrozenSet[ProcessId]) -> None:
        self.live_set[p] = frozenset(targets)

    # -- linkage from membership outputs (Figure 8) -------------------------

    def _eff_mbrshp_start_change(self, p: ProcessId, cid: int, members: FrozenSet[ProcessId]) -> None:
        self.live_set[p] = frozenset(members)

    def _eff_mbrshp_view(self, p: ProcessId, v: View) -> None:
        self.live_set[p] = frozenset(v.members)

    # -- deliver_{p,q}(m) ----------------------------------------------------

    def _pre_co_rfifo_deliver(self, p: ProcessId, q: ProcessId, m: Any) -> bool:
        chan = self.channel[(p, q)]
        return bool(chan) and chan[0] == m

    def _eff_co_rfifo_deliver(self, p: ProcessId, q: ProcessId, m: Any) -> None:
        self.channel[(p, q)].popleft()

    def _candidates_co_rfifo_deliver(self) -> Iterable[Tuple[ProcessId, ProcessId, Any]]:
        for (p, q), chan in self.channel.items():
            if chan:
                yield (p, q, chan[0])

    # -- lose(p, q) -----------------------------------------------------------

    def _pre_co_rfifo_lose(self, p: ProcessId, q: ProcessId) -> bool:
        return q not in self.reliable_set[p] and bool(self.channel[(p, q)])

    def _eff_co_rfifo_lose(self, p: ProcessId, q: ProcessId) -> None:
        self.channel[(p, q)].pop()  # dequeue the *last* message

    def _candidates_co_rfifo_lose(self) -> Iterable[Tuple[ProcessId, ProcessId]]:
        for (p, q), chan in self.channel.items():
            if chan and q not in self.reliable_set[p]:
                yield (p, q)

    # -- crash (Section 8) ------------------------------------------------------

    def _eff_crash(self, p: ProcessId) -> None:
        # The last messages from a crashed p may be dropped.
        self.reliable_set[p] = frozenset()
        self.live_set[p] = frozenset()

    # -- tasks (Figure 3) ----------------------------------------------------------

    def tasks(self) -> Dict[str, Any]:
        """One task per live (p, q) pair, plus a dummy task.

        Deliveries to destinations in ``live_set[p]`` must happen; the
        dummy task collects non-live deliveries and losses, which the
        fairness condition never forces.
        """

        def live_delivery(p: ProcessId, q: ProcessId) -> Callable[[Action], bool]:
            return (
                lambda action: action.name == "co_rfifo.deliver"
                and action.params[0] == p
                and action.params[1] == q
                and q in self.live_set[p]
            )

        tasks: Dict[str, Any] = {
            f"deliver[{p}][{q}]": live_delivery(p, q)
            for p in self.processes
            for q in self.processes
        }
        tasks["dummy"] = (
            lambda action: action.name == "co_rfifo.lose"
            or (
                action.name == "co_rfifo.deliver"
                and action.params[1] not in self.live_set[action.params[0]]
            )
        )
        return tasks
