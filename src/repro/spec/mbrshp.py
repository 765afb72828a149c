"""The external membership service specification, Figure 2.

``MbrshpSpec`` is the centralized MBRSHP automaton: it validates and
tracks ``start_change`` and ``view`` deliveries per process, enforcing
Self Inclusion, Local Monotonicity, the start_change-before-view mode
discipline, and the ``startId``/subset relations between a view and the
start_changes that preceded it.

``MembershipDriver`` generates legal membership behaviours - stabilizing
runs for liveness tests and chaotic partitionable runs for adversarial
safety tests - by enumerating enabled MBRSHP output actions.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro._collections import frozendict
from repro.ioa import Action, ActionKind, Automaton
from repro.types import (
    CID_ZERO,
    ProcessId,
    StartChange,
    StartChangeId,
    View,
    ViewId,
    initial_view,
)

MODE_NORMAL = "normal"
MODE_CHANGE_STARTED = "change_started"


class MbrshpSpec(Automaton):
    """The MBRSHP specification automaton (Figure 2), plus the crash and
    recovery inputs of Section 8 (the membership service itself never
    crashes and never loses its state)."""

    SIGNATURE = {
        # repro: allow[R3.missing-candidates] - trace-checked spec; the
        # membership service drives these, never enabled_actions().
        "mbrshp.start_change": ActionKind.OUTPUT,  # (p, cid, set)
        # repro: allow[R3.missing-candidates]
        "mbrshp.view": ActionKind.OUTPUT,  # (p, v)
        "crash": ActionKind.INPUT,  # (p,)
        "recover": ActionKind.INPUT,  # (p,)
    }

    def __init__(self, processes: Iterable[ProcessId], name: str = "mbrshp", **kwargs) -> None:
        self.processes: Tuple[ProcessId, ...] = tuple(sorted(set(processes)))
        super().__init__(name, **kwargs)

    def _state(self) -> None:
        self.mbrshp_view: Dict[ProcessId, View] = {p: initial_view(p) for p in self.processes}
        self.start_change: Dict[ProcessId, StartChange] = {
            p: StartChange(CID_ZERO, frozenset()) for p in self.processes
        }
        self.mode: Dict[ProcessId, str] = {p: MODE_NORMAL for p in self.processes}

    # -- start_change_p(cid, set) --------------------------------------

    def _pre_mbrshp_start_change(self, p: ProcessId, cid: StartChangeId, members: FrozenSet[ProcessId]) -> bool:
        return cid > self.start_change[p].cid and p in members

    def _eff_mbrshp_start_change(self, p: ProcessId, cid: StartChangeId, members: FrozenSet[ProcessId]) -> None:
        self.start_change[p] = StartChange(cid, frozenset(members))
        self.mode[p] = MODE_CHANGE_STARTED

    # -- view_p(v) ------------------------------------------------------

    def _pre_mbrshp_view(self, p: ProcessId, v: View) -> bool:
        return (
            self.advances(p, v)
            and v.members <= self.start_change[p].members
            and self.includes_self(p, v)
            and v.start_id(p) == self.start_change[p].cid
            and self.mode[p] == MODE_CHANGE_STARTED
        )

    # Two of its conjuncts, named so a trace replay can say which one
    # refused a step.

    def includes_self(self, p: ProcessId, v: View) -> bool:
        """Self Inclusion: ``p`` is a member of ``v``."""
        return p in v.members

    def advances(self, p: ProcessId, v: View) -> bool:
        """Local Monotonicity: ``v``'s identifier exceeds ``p``'s last one."""
        return v.vid > self.mbrshp_view[p].vid

    def _eff_mbrshp_view(self, p: ProcessId, v: View) -> None:
        self.mbrshp_view[p] = v
        self.mode[p] = MODE_NORMAL

    # -- crash / recovery (Section 8) ------------------------------------

    def _eff_crash(self, p: ProcessId) -> None:
        # The membership service observes the crash; its own state (the
        # per-client cid/vid watermarks) survives, which is what preserves
        # Local Monotonicity across client recoveries.
        pass

    def _eff_recover(self, p: ProcessId) -> None:
        self.mode[p] = MODE_NORMAL

    # -- helpers ----------------------------------------------------------

    def last_cid(self, p: ProcessId) -> StartChangeId:
        return self.start_change[p].cid

    def current_view(self, p: ProcessId) -> View:
        return self.mbrshp_view[p]

    def max_view_counter(self) -> int:
        return max(self.mbrshp_view[p].vid.counter for p in self.processes)


class MembershipDriver:
    """Generates legal MBRSHP behaviours against an :class:`MbrshpSpec`.

    The driver is the adversary of the safety tests and the benefactor of
    the liveness tests.  It produces actions through the composed system
    (so the algorithm end-points receive them as inputs) and never
    violates the MBRSHP preconditions.
    """

    def __init__(self, spec: MbrshpSpec, seed: int = 0) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self._cid_counter = itertools.count(start=1)
        self._vid_counter = itertools.count(start=1)

    # -- primitives -------------------------------------------------------

    def start_change_actions(self, members: Iterable[ProcessId]) -> List[Action]:
        """One fresh start_change per member of ``members``."""
        member_set = frozenset(members)
        actions = []
        for p in sorted(member_set):
            cid = max(next(self._cid_counter), self.spec.last_cid(p) + 1)
            actions.append(Action("mbrshp.start_change", (p, cid, member_set)))
        return actions

    def view_actions(self, view: View, recipients: Optional[Iterable[ProcessId]] = None) -> List[Action]:
        targets = sorted(view.members if recipients is None else recipients)
        return [Action("mbrshp.view", (p, view)) for p in targets]

    # -- canned behaviours --------------------------------------------------

    def form_view(self, members: Iterable[ProcessId]) -> Tuple[View, List[Action]]:
        """A full, clean view change: start_changes then the view, for all.

        Returns the formed view and the action list (to be injected /
        executed in order).
        """
        member_set = frozenset(members)
        actions = self.start_change_actions(member_set)
        # The view must be assembled after the start_changes are applied,
        # so we pre-compute the cids the start_change actions will install.
        cids = {action.params[0]: action.params[1] for action in actions}
        counter = max(next(self._vid_counter), self.spec.max_view_counter() + 1)
        view = View(ViewId(counter), member_set, frozendict(cids))
        actions.extend(Action("mbrshp.view", (p, view)) for p in sorted(member_set))
        return view, actions

    def partitioned_views(
        self, groups: Sequence[Iterable[ProcessId]]
    ) -> Tuple[List[View], List[Action]]:
        """Concurrent disjoint views, one per group (partitionable service)."""
        views: List[View] = []
        actions: List[Action] = []
        for group in groups:
            view, group_actions = self.form_view(group)
            views.append(view)
            actions.extend(group_actions)
        return views, actions

    def random_behaviour(self, steps: int) -> List[Action]:
        """A chaotic but legal action sequence for adversarial tests.

        Mixes overlapping start_changes, views delivered to only some
        members (partitions), repeated reconfiguration attempts, and
        processes joining mid-change.
        """
        processes = list(self.spec.processes)
        actions: List[Action] = []
        for _ in range(steps):
            kind = self.rng.random()
            group_size = self.rng.randint(1, len(processes))
            group = frozenset(self.rng.sample(processes, group_size))
            if kind < 0.5:
                actions.extend(self.start_change_actions(group))
            else:
                _view, group_actions = self.form_view(group)
                # Sometimes withhold the view from a suffix of members,
                # modelling a partition striking mid-delivery.
                drop = self.rng.randint(0, group_size - 1)
                view_actions = [a for a in group_actions if a.name == "mbrshp.view"]
                keep = len(view_actions) - drop
                actions.extend(a for a in group_actions if a.name == "mbrshp.start_change")
                actions.extend(view_actions[:keep])
        return actions
