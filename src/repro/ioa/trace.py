"""Execution traces of composed automata (Section 2).

A *trace* is the subsequence of an execution consisting of external
actions.  :class:`Trace` records every step the scheduler executes,
tagging each with the component that controlled it, and offers the
projections the paper's proofs rely on (per-process subsequences,
projection onto a signature).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional

from repro.ioa.action import Action, ActionKind


@dataclass(frozen=True)
class TraceEvent:
    """One step of an execution: who performed which action, when."""

    index: int
    action: Action
    owner: str
    kind: ActionKind

    def __repr__(self) -> str:
        return f"[{self.index}] {self.owner}: {self.action!r}"


class Trace:
    """An append-only record of executed steps."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(self, action: Action, owner: str, kind: ActionKind) -> TraceEvent:
        event = TraceEvent(len(self._events), action, owner, kind)
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self._events[index]

    def events(
        self,
        name: Optional[str] = None,
        where: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Events filtered by action name and/or an arbitrary predicate."""
        selected: Iterable[TraceEvent] = self._events
        if name is not None:
            selected = (e for e in selected if e.action.name == name)
        if where is not None:
            selected = (e for e in selected if where(e))
        return list(selected)

    def external(self) -> List[TraceEvent]:
        """The trace proper: external (input/output) actions only."""
        return [e for e in self._events if e.kind is not ActionKind.INTERNAL]

    def project(self, names: Iterable[str]) -> List[TraceEvent]:
        """Projection onto a sub-signature, as used for trace inclusion."""
        wanted = set(names)
        return [e for e in self._events if e.action.name in wanted]

    def actions(self) -> List[Action]:
        return [e.action for e in self._events]

    def __repr__(self) -> str:
        return f"<Trace of {len(self._events)} events>"
