"""Replicated state machines over virtually synchronous total order.

Commands are disseminated through the total-order layer
(:class:`~repro.order.total.TotalOrderNode`), so every replica applies the
same command sequence.  View changes exploit the service's guarantees:

* members of the transitional set have, by Virtual Synchrony, applied
  identical command sequences - no synchronisation needed among them;
* when a view contains *newcomers* (members outside the transitional
  set, i.e. arriving from other views), each co-mover group's leader (its
  least transitional-set member) broadcasts a state snapshot; because
  snapshots travel in the same total order as commands, the **first**
  snapshot delivered after the view wins at every replica, and commands
  delivered before it are buffered and re-applied on top - a fully
  deterministic merge, identical everywhere.

With ``universe`` given, the machine is *primary-partition*: commands are
accepted only while the current view holds a strict majority of the
universe, so divergent minority histories can never win a merge.

Failure semantics: if a merge's snapshot leader crashes before its offer
is delivered, the commands buffered while waiting are dropped - by every
co-mover identically, so replicas stay consistent - and the next view's
merge protocol re-runs.  Commands are therefore at-most-once across
leader failures; applications needing exactly-once must retry through
their own request ids.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, List, Optional

from repro.errors import ReproError
from repro.order.total import TotalOrderNode
from repro.types import ProcessId, View, ViewId

COMMAND = "rsm-cmd"
SNAPSHOT = "rsm-snap"

ApplyFn = Callable[[Any, Any], Any]  # (state, operation) -> new state


class NotPrimaryError(ReproError):
    """A command was submitted while the view lacks a universe majority."""


class ReplicatedStateMachine:
    """One replica of a deterministic state machine."""

    def __init__(
        self,
        member: Any,
        initial_state: Any,
        apply_fn: ApplyFn,
        *,
        universe: Optional[FrozenSet[ProcessId]] = None,
        on_apply: Optional[Callable[[Any, Any], None]] = None,
    ) -> None:
        self.pid: ProcessId = member.pid
        self.state = initial_state
        self.applied = 0
        self._apply_fn = apply_fn
        self._on_apply = on_apply
        self.universe = frozenset(universe) if universe is not None else None
        self.view: Optional[View] = None
        self.transitional: FrozenSet[ProcessId] = frozenset()
        # Set while waiting for the winning snapshot of a merge view;
        # commands delivered meanwhile are buffered in total order.
        self._awaiting_snapshot_for: Optional[ViewId] = None
        self._buffered: List[Any] = []
        self.order = TotalOrderNode(
            member, on_deliver=self._deliver, on_view=self._view_change
        )

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------

    def command(self, operation: Any) -> None:
        """Submit ``operation`` for replicated, totally ordered execution."""
        if not self.is_primary:
            raise NotPrimaryError(
                f"{self.pid}: view {self.view} lacks a majority of {sorted(self.universe)}"
            )
        self.order.broadcast((COMMAND, operation))

    @property
    def is_primary(self) -> bool:
        """Whether commands are currently accepted (majority rule)."""
        if self.universe is None:
            return True
        if self.view is None:
            return False
        return len(self.view.members & self.universe) * 2 > len(self.universe)

    # ------------------------------------------------------------------
    # total-order callbacks
    # ------------------------------------------------------------------

    def _deliver(self, sender: ProcessId, message: Any) -> None:
        kind = message[0]
        if kind == COMMAND:
            operation = message[1]
            if self._awaiting_snapshot_for is not None:
                self._buffered.append(operation)
            else:
                self._apply(operation)
        elif kind == SNAPSHOT:
            _tag, view_id, state, applied = message
            if self._awaiting_snapshot_for == view_id:
                # the first snapshot for this merge view wins, everywhere
                self.state = state
                self.applied = applied
                self._awaiting_snapshot_for = None
                buffered, self._buffered = self._buffered, []
                for operation in buffered:
                    self._apply(operation)

    def _view_change(self, view: View, transitional: FrozenSet[ProcessId]) -> None:
        self.view = view
        self.transitional = transitional
        self._awaiting_snapshot_for = None
        self._buffered = []
        newcomers = view.members - transitional
        if not newcomers:
            return  # co-movers are already consistent (Virtual Synchrony)
        self._awaiting_snapshot_for = view.vid
        if self.pid == min(transitional):
            # this group's leader offers its state; the total order picks
            # one winner among the merging groups' offers
            self.order.broadcast((SNAPSHOT, view.vid, self.state, self.applied))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _apply(self, operation: Any) -> None:
        self.state = self._apply_fn(self.state, operation)
        self.applied += 1
        if self._on_apply is not None:
            self._on_apply(self.state, operation)
