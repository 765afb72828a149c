"""Composition and hiding of I/O automata (Section 2).

The composition operation matches output and input actions with the same
name across component automata: when a component performs a step
involving an output action, every component that has the action as an
input takes the same step.  The result of composing an output with inputs
remains an output (allowing further composition); the :meth:`hide`
operator re-classifies outputs as internal.

The execution machinery is incremental: the composition keeps one cached
enabled-set per component, keyed by the component's ``state_version``
counter, and subscribes to each component's version bumps so dirtiness is
*pushed* into a dirty-index set rather than discovered by scanning every
component's version on every call.  A composed step can only change the
state of the acting owner and the components that accept the action as an
input - exactly the automata whose version counters move - so a scheduler
step re-enumerates candidates for O(dirty components) instead of
O(system), and a call with nothing dirty returns the cached flat list
without touching the components at all (the property that keeps a
thousand-component system from paying a thousand version reads per
event).  :meth:`naive_enabled_actions` recomputes everything reflectively
and is the oracle differential tests compare the cache against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ActionNotEnabled, CompositionError
from repro.ioa.action import Action, ActionKind
from repro.ioa.automaton import Automaton
from repro.ioa.trace import Trace

# Composed classification precedence: any OUTPUT controller makes the
# composed action an OUTPUT; otherwise INTERNAL wins over INPUT.
_KIND_RANK = {ActionKind.INPUT: 0, ActionKind.INTERNAL: 1, ActionKind.OUTPUT: 2}

_NO_COMPONENTS: Tuple[Automaton, ...] = ()


class Composition:
    """A closed system of component automata executing matched steps."""

    def __init__(self, components: Sequence[Automaton], name: str = "system") -> None:
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise CompositionError(f"duplicate component names: {names}")
        self.name = name
        self.components: List[Automaton] = list(components)
        self._by_name: Dict[str, Automaton] = {c.name: c for c in components}
        self._hidden: Set[str] = set()
        self.trace = Trace()
        self._validate_signatures()
        # action name -> components that take it as an input, in
        # component order (signatures are fixed once composed).
        self._inputs_by_name: Dict[str, List[Automaton]] = {}
        for component in self.components:
            for action_name, kind in component._signature.items():
                if kind is ActionKind.INPUT:
                    self._inputs_by_name.setdefault(action_name, []).append(component)
        # Composed action classification, built lazily and invalidated by
        # hide(); spares trace recording a scan over all components.
        self._kind_map: Optional[Dict[str, ActionKind]] = None
        # Per-component enabled-set cache with the state version it was
        # computed at; -1 forces the first computation.
        self._component_index: Dict[str, int] = {
            c.name: i for i, c in enumerate(self.components)
        }
        self._enabled_cache: List[Optional[List[Action]]] = [None] * len(self.components)
        self._enabled_versions: List[int] = [-1] * len(self.components)
        # Push-based dirty tracking: every component version bump lands
        # its index here; enabled_actions() re-enumerates only these and
        # serves the concatenated flat list from cache otherwise.
        self._dirty: Set[int] = set(range(len(self.components)))
        self._flat_cache: Optional[List[Tuple[Automaton, Action]]] = None
        for index, component in enumerate(self.components):
            component.subscribe_version(self._dirty_marker(index))

    def _dirty_marker(self, index: int):
        dirty = self._dirty

        def mark() -> None:
            dirty.add(index)

        return mark

    def _validate_signatures(self) -> None:
        # An action name may be an output of several *per-process* automata
        # (distinguished by their parameters), but the same *bound* action
        # must have a single controller; we check the cheap static part
        # here and the dynamic part when executing.
        for component in self.components:
            for action_name, kind in component._signature.items():
                if kind is ActionKind.INTERNAL:
                    for other in self.components:
                        if other is component:
                            continue
                        if action_name in other._signature:
                            raise CompositionError(
                                f"internal action {action_name!r} of {component.name} "
                                f"also appears in {other.name}"
                            )

    def component(self, name: str) -> Automaton:
        return self._by_name[name]

    def hide(self, action_names: Iterable[str]) -> "Composition":
        """Re-classify the given output actions as internal."""
        self._hidden.update(action_names)
        self._kind_map = None
        return self

    def _build_kind_map(self) -> Dict[str, ActionKind]:
        kind_map: Dict[str, ActionKind] = {}
        for component in self.components:
            for action_name, kind in component._signature.items():
                current = kind_map.get(action_name)
                if current is None or _KIND_RANK[kind] > _KIND_RANK[current]:
                    kind_map[action_name] = kind
        self._kind_map = kind_map
        return kind_map

    def kind_of(self, action: Action) -> ActionKind:
        """The composed system's classification of ``action``."""
        if action.name in self._hidden:
            return ActionKind.INTERNAL
        kind_map = self._kind_map
        if kind_map is None:
            kind_map = self._build_kind_map()
        return kind_map.get(action.name, ActionKind.INPUT)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _refreshed_enabled(self, index: int, component: Automaton, refresh: bool) -> List[Action]:
        """The cached enabled set of one component, recomputed if stale.

        The returned list is owned by the cache - callers must not
        mutate it.
        """
        version = component._state_version
        cached = self._enabled_cache[index]
        if refresh or cached is None or self._enabled_versions[index] != version:
            cached = component.enabled_actions()
            self._enabled_cache[index] = cached
            self._enabled_versions[index] = version
            self._flat_cache = None
        return cached

    def enabled_actions(self, refresh: bool = False) -> List[Tuple[Automaton, Action]]:
        """All enabled locally controlled actions across components.

        Served from the per-component cache; only components whose state
        version moved since the last call (pushed into the dirty set by
        their version observers) are re-enumerated, and when nothing is
        dirty the concatenated list itself is served from cache without
        visiting any component.  Pass ``refresh=True`` to force a full
        recomputation (needed after mutating component state directly
        without ``apply``/``touch``).  Ordering is identical to
        :meth:`naive_enabled_actions`.
        """
        if not refresh and not self._dirty and self._flat_cache is not None:
            return list(self._flat_cache)
        if refresh:
            for index, component in enumerate(self.components):
                self._refreshed_enabled(index, component, True)
        else:
            for index in self._dirty:
                self._refreshed_enabled(index, self.components[index], False)
        self._dirty.clear()
        enabled: List[Tuple[Automaton, Action]] = []
        for index, component in enumerate(self.components):
            cached = self._enabled_cache[index]
            if cached:
                for action in cached:
                    enabled.append((component, action))
        self._flat_cache = enabled
        return list(enabled)

    def enabled_for(self, component: Automaton, refresh: bool = False) -> List[Action]:
        """The cached enabled set of one component (do not mutate)."""
        index = self._component_index[component.name]
        return self._refreshed_enabled(index, component, refresh)

    def naive_enabled_actions(self) -> List[Tuple[Automaton, Action]]:
        """Cache-free oracle: recompute every component's enabled set
        through the reflective MRO walk (see differential tests)."""
        enabled: List[Tuple[Automaton, Action]] = []
        for component in self.components:
            for action in component.naive_enabled_actions():
                enabled.append((component, action))
        return enabled

    def execute(self, owner: Automaton, action: Action, record: bool = True) -> None:
        """Perform one composed step: ``owner`` plus all accepting inputs."""
        owner.apply(action)
        for component in self._inputs_by_name.get(action.name, _NO_COMPONENTS):
            if component is not owner and component.accepts(action):
                component.apply(action)
        if record:
            self.trace.record(action, owner.name, self.kind_of(action))

    def inject(self, action: Action, record: bool = True) -> None:
        """Feed an environment input action to every accepting component.

        Used when the composition is *open*: the environment (a test, a
        driver, hypothesis) plays the missing output side.
        """
        accepted = False
        for component in self._inputs_by_name.get(action.name, _NO_COMPONENTS):
            if component.accepts(action):
                component.apply(action)
                accepted = True
        if not accepted:
            raise ActionNotEnabled(f"no component accepts input {action!r}")
        if record:
            self.trace.record(action, "env", ActionKind.INPUT)

    def quiescent(self) -> bool:
        """True when no locally controlled action is enabled anywhere."""
        return not self.enabled_actions()

    def __repr__(self) -> str:
        inner = ", ".join(c.name for c in self.components)
        return f"<Composition {self.name}: {inner}>"
