"""Executable I/O automata with the inheritance construct of [26].

An automaton subclass declares, per class in its inheritance chain:

``SIGNATURE``
    mapping of action name to :class:`~repro.ioa.action.ActionKind`.  The
    effective signature merges the chain (derived classes may add actions
    or re-declare an action they modify).

``PARAM_PROJECTIONS``
    mapping of action name to a function that projects *this* class's
    parameter tuple for the action onto the parameter tuple expected by
    the parent level (used when a child extends an action's signature,
    e.g. ``view_p(v, T) modifies wv_rfifo.view_p(v)``).

``_state(self)``
    creates this class's state variables as instance attributes.  The
    framework calls these base-first and records which class *owns* each
    variable, which lets strict mode enforce the rule of [26] that a
    child's added effects never modify parent state.

``_pre_<action>(self, *params)`` / ``_eff_<action>(self, *params)``
    this class's contribution to the action's precondition / effect.
    Along the chain, preconditions are conjoined and effects run
    child-first, then parent - exactly the transition-restriction
    semantics of the paper's Section 2.  Dots in action names map to
    underscores (:func:`~repro.ioa.action.method_suffix`).

``_candidates_<action>(self)``
    yields parameter tuples for which a locally controlled action might
    currently be enabled (the most-derived definition wins).  This is what
    makes the automata *executable*: rather than scanning an infinite
    parameter space, each automaton proposes the finitely many bindings
    its state makes relevant.

Transition chains are *compiled* once per class: the ordered
``(precondition, effect, projection)`` pieces along the MRO, the merged
signature, and the candidate-method lookup are resolved the first time an
action is exercised and cached on the class, so the per-step hot path
(:meth:`Automaton.precondition`, :meth:`Automaton.enabled_actions`) never
walks the MRO or builds method names.  The reflective walk survives as
:meth:`Automaton.naive_enabled_actions`, the oracle the differential
tests compare the compiled engine against.

Every state change that goes through :meth:`apply` (or
:meth:`apply_enabled`, its twin for an action just found enabled),
:meth:`reset_state` or an explicit :meth:`touch` bumps ``_state_version``; compositions use
the counter to keep per-component enabled-set caches honest (see
:class:`~repro.ioa.composition.Composition`).
"""

from __future__ import annotations

import copy
import pickle
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.errors import ActionNotEnabled, InheritanceError, UnknownAction
from repro.ioa.action import Action, ActionKind, method_suffix

_Projection = Callable[..., Tuple[Any, ...]]

_LOCALLY_CONTROLLED = (ActionKind.OUTPUT, ActionKind.INTERNAL)


class CompiledAction:
    """The per-class compilation of one action's transition chain.

    ``pre_chain`` / ``eff_chain`` hold the inheritance pieces in MRO
    order (most-derived first), interleaved with the parameter
    projections that rebind the parameters for the levels below - the
    exact traversal :meth:`Automaton._walk` performs reflectively.
    """

    __slots__ = ("name", "pre_chain", "eff_chain", "candidates")

    def __init__(
        self,
        name: str,
        pre_chain: Tuple[Tuple[Optional[Callable], Optional[_Projection]], ...],
        eff_chain: Tuple[Tuple[Optional[Callable], Type, Optional[_Projection]], ...],
        candidates: Optional[Callable],
    ) -> None:
        self.name = name
        self.pre_chain = pre_chain
        self.eff_chain = eff_chain
        self.candidates = candidates


def _compile_action(cls: Type["Automaton"], action_name: str) -> CompiledAction:
    """Resolve one action's chain along ``cls.__mro__`` once."""
    suffix = method_suffix(action_name)
    pre_name = f"_pre_{suffix}"
    eff_name = f"_eff_{suffix}"
    pre_chain: List[Tuple[Optional[Callable], Optional[_Projection]]] = []
    eff_chain: List[Tuple[Optional[Callable], Type, Optional[_Projection]]] = []
    for klass in cls.__mro__:
        if not (isinstance(klass, type) and issubclass(klass, Automaton)):
            continue
        pre_fn = klass.__dict__.get(pre_name)
        eff_fn = klass.__dict__.get(eff_name)
        projection = klass.__dict__.get("PARAM_PROJECTIONS", {}).get(action_name)
        if pre_fn is not None or projection is not None:
            pre_chain.append((pre_fn, projection))
        if eff_fn is not None or projection is not None:
            eff_chain.append((eff_fn, klass, projection))
    candidates = getattr(cls, f"_candidates_{suffix}", None)
    return CompiledAction(action_name, tuple(pre_chain), tuple(eff_chain), candidates)


class Automaton:
    """Base class of all executable I/O automata."""

    SIGNATURE: Dict[str, ActionKind] = {}
    # Actions an *instance* may opt into after construction (e.g. the
    # Figure 8 membership linkage of CoRfifoSpec).  Declaring them here
    # keeps the vocabulary statically visible - the analyzer treats the
    # union of SIGNATURE and OPTIONAL_SIGNATURE as the set of legal
    # `_pre_`/`_eff_`/`_candidates_` targets - while the merged runtime
    # signature only contains them once enable_optional_actions ran.
    OPTIONAL_SIGNATURE: Dict[str, ActionKind] = {}
    PARAM_PROJECTIONS: Dict[str, _Projection] = {}
    # Documented ordering barrier for locally controlled actions: drivers
    # that drain to quiescence (repro.core.runner.EndpointRunner) execute
    # same-batch actions in this tuple's order (earlier first), which
    # serialises otherwise-concurrent interfering actions.  The static
    # interference rule (R5 in repro.analysis) exempts action pairs that
    # both appear here; most-derived declaration wins, and the runner
    # refuses to drive a class that declares none.
    ORDERING: Tuple[str, ...] = ()

    def __init__(self, name: str, *, strict: bool = False) -> None:
        self.name = name
        # When True, every effect piece is checked against the ownership
        # rule of the inheritance construct (slow; meant for tests).
        self.strict = strict
        self._signature = self._merged_signature()
        # Class-level chain cache, shared by all instances of this class;
        # entries compile lazily so instance-extended signatures (e.g.
        # CoRfifoSpec's membership linkage) resolve their chains too.
        self._chain_cache = type(self)._class_chains()
        # (name, CompiledAction) for the locally controlled actions, in
        # signature order; built lazily because signatures may gain
        # instance-level input actions after construction.
        self._lc_compiled: Optional[List[Tuple[str, CompiledAction]]] = None
        # Monotone counter bumped by every apply/reset/touch; composition
        # enabled-set caches compare it to spot stale entries.
        self._state_version = 0
        # Callbacks fired on every version bump.  Compositions subscribe
        # so a dirty component pushes its index into the composition's
        # dirty set instead of every enabled_actions() call scanning all
        # component versions (O(system) per call at n=1000).
        self._version_observers: List[Callable[[], None]] = []
        self._owners: Dict[str, Type[Automaton]] = {}
        # klass -> names of variables owned by its strict ancestors, the
        # set strict mode guards; cached because it is scanned twice per
        # strict effect piece.
        self._ancestor_attrs: Dict[Type[Automaton], Tuple[str, ...]] = {}
        self._init_state_chain()

    # ------------------------------------------------------------------
    # signature
    # ------------------------------------------------------------------

    @classmethod
    def _class_chains(cls) -> Dict[str, CompiledAction]:
        """This class's own compiled-chain cache (never inherited)."""
        chains = cls.__dict__.get("_ioa_chains")
        if chains is None:
            chains = {}
            cls._ioa_chains = chains
        return chains

    @classmethod
    def _merged_signature(cls) -> Dict[str, ActionKind]:
        template = cls.__dict__.get("_ioa_signature")
        if template is None:
            template = {}
            for klass in reversed(cls.__mro__):
                template.update(klass.__dict__.get("SIGNATURE", {}))
            cls._ioa_signature = template
        # Per-instance copy: some automata overlay instance-specific
        # inputs after construction (see CoRfifoSpec's link_membership).
        return dict(template)

    @property
    def signature(self) -> Dict[str, ActionKind]:
        """The effective (merged) signature of this automaton."""
        return dict(self._signature)

    @classmethod
    def optional_signature(cls) -> Dict[str, ActionKind]:
        """The merged OPTIONAL_SIGNATURE declarations along the chain."""
        optional: Dict[str, ActionKind] = {}
        for klass in reversed(cls.__mro__):
            optional.update(klass.__dict__.get("OPTIONAL_SIGNATURE", {}))
        return optional

    def enable_optional_actions(self, *names: str) -> None:
        """Overlay declared-optional actions onto this instance's signature.

        Only actions listed in some class's ``OPTIONAL_SIGNATURE`` along
        the inheritance chain may be enabled; asking for anything else is
        an :class:`UnknownAction` error, so instance-level signature
        growth stays within the statically declared vocabulary.
        """
        optional = self.optional_signature()
        for name in names:
            kind = optional.get(name)
            if kind is None:
                raise UnknownAction(
                    f"{self.name}: {name!r} is not declared in OPTIONAL_SIGNATURE"
                )
            self._signature[name] = kind
        self._lc_compiled = None

    def kind_of(self, action_name: str) -> ActionKind:
        try:
            return self._signature[action_name]
        except KeyError:
            raise UnknownAction(f"{self.name}: unknown action {action_name!r}") from None

    def locally_controlled(self) -> List[str]:
        """Names of this automaton's output and internal actions."""
        return [
            name
            for name, kind in self._signature.items()
            if kind in _LOCALLY_CONTROLLED
        ]

    def accepts(self, action: Action) -> bool:
        """Whether this automaton takes ``action`` as an input.

        Per-process automata override this to claim only the actions
        subscripted with their own process identifier.
        """
        return self._signature.get(action.name) is ActionKind.INPUT

    # ------------------------------------------------------------------
    # compiled chains
    # ------------------------------------------------------------------

    def _compiled_for(self, action_name: str) -> CompiledAction:
        entry = self._chain_cache.get(action_name)
        if entry is None:
            entry = _compile_action(type(self), action_name)
            self._chain_cache[action_name] = entry
        return entry

    def _locally_controlled_compiled(self) -> List[Tuple[str, CompiledAction]]:
        compiled = self._lc_compiled
        if compiled is None:
            compiled = [
                (name, self._compiled_for(name))
                for name, kind in self._signature.items()
                if kind in _LOCALLY_CONTROLLED
            ]
            self._lc_compiled = compiled
        return compiled

    # ------------------------------------------------------------------
    # state ownership
    # ------------------------------------------------------------------

    def _init_state_chain(self) -> None:
        for klass in reversed(type(self).__mro__):
            if "_state" not in klass.__dict__:
                continue
            before = set(self.__dict__)
            klass.__dict__["_state"](self)
            # Sorted: _owners insertion order (and with it every strict-mode
            # fingerprint tuple) must not depend on set hash order.
            for attr in sorted(set(self.__dict__) - before):
                self._owners[attr] = klass

    def _state(self) -> None:
        """Declare state variables (override per class)."""

    def reset_state(self) -> None:
        """Reset all state variables to their initial values (Section 8)."""
        for attr in list(self._owners):
            delattr(self, attr)
        self._owners.clear()
        self._ancestor_attrs.clear()
        self._init_state_chain()
        self._state_version += 1
        for observer in self._version_observers:
            observer()

    def touch(self) -> int:
        """Declare an out-of-band state change (e.g. a test poking a
        variable directly), so composition enabled-set caches refresh.
        Returns the new state version."""
        self._state_version += 1
        for observer in self._version_observers:
            observer()
        return self._state_version

    def subscribe_version(self, observer: Callable[[], None]) -> None:
        """Register a callback fired after every state-version bump.

        Used by :class:`~repro.ioa.composition.Composition` for push-based
        dirty tracking; observers must be cheap and must not step the
        automaton.
        """
        self._version_observers.append(observer)

    @property
    def state_version(self) -> int:
        """Monotone counter of state changes seen by the framework."""
        return self._state_version

    def state_vars(self) -> Dict[str, Any]:
        """A shallow snapshot of the declared state variables."""
        return {attr: getattr(self, attr) for attr in self._owners}

    def _ancestor_attr_names(self, klass: Type["Automaton"]) -> Tuple[str, ...]:
        """Names of variables owned by strict ancestors of ``klass``."""
        attrs = self._ancestor_attrs.get(klass)
        if attrs is None:
            attrs = tuple(
                attr
                for attr, owner in self._owners.items()
                if owner is not klass and issubclass(klass, owner)
            )
            self._ancestor_attrs[klass] = attrs
        return attrs

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------

    def _walk(self, prefix: str, action: Action) -> Iterator[Tuple[Type["Automaton"], Callable, Tuple]]:
        """Yield (class, piece, params-at-that-level), applying projections.

        The reflective traversal the compiled chains replace; kept as the
        oracle for differential tests (see naive_enabled_actions).
        """
        params = action.params
        projected_below: List[Type[Automaton]] = []
        for klass in type(self).__mro__:
            if not issubclass(klass, Automaton):
                continue
            fn = klass.__dict__.get(f"{prefix}{method_suffix(action.name)}")
            if fn is not None:
                yield klass, fn, params
            projection = klass.__dict__.get("PARAM_PROJECTIONS", {}).get(action.name)
            if projection is not None and klass not in projected_below:
                params = tuple(projection(*params))
                projected_below.append(klass)

    def precondition(self, action: Action) -> bool:
        """Conjunction of all precondition pieces along the chain."""
        kind = self._signature.get(action.name)
        if kind is None:
            raise UnknownAction(f"{self.name}: unknown action {action.name!r}")
        if kind is ActionKind.INPUT:
            return True  # input actions are enabled in every state
        params = action.params
        for fn, projection in self._compiled_for(action.name).pre_chain:
            if fn is not None and not fn(self, *params):
                return False
            if projection is not None:
                params = tuple(projection(*params))
        return True

    def _run_effects(self, name: str, params: Tuple[Any, ...], compiled: CompiledAction) -> None:
        """Run the effect pieces of ``name(*params)`` along ``compiled``'s
        chain, then bump the state version."""
        if self.strict:
            for fn, klass, projection in compiled.eff_chain:
                if fn is not None:
                    self._run_strict_effect(fn, klass, name, params)
                if projection is not None:
                    params = tuple(projection(*params))
        else:
            for fn, _klass, projection in compiled.eff_chain:
                if fn is not None:
                    fn(self, *params)
                if projection is not None:
                    params = tuple(projection(*params))
        self._state_version += 1
        for observer in self._version_observers:
            observer()

    def _run_strict_effect(
        self, fn: Callable, klass: Type["Automaton"], name: str, params: Tuple
    ) -> None:
        """Run one effect piece under the ownership rule of [26].

        Fast path: fingerprint the ancestor variables with pickle (a C
        round-trip, ~7x cheaper than deepcopy); identical bytes prove the
        piece left them untouched.  Only when the fingerprint moves (or
        the state is unpicklable) fall back to the precise per-variable
        equality check, so legal effects pay near-nothing and offending
        ones are reported exactly as before.
        """
        attrs = self._ancestor_attr_names(klass)
        if not attrs:
            fn(self, *params)
            return
        before = tuple(getattr(self, attr) for attr in attrs)
        try:
            before_blob = pickle.dumps(before, pickle.HIGHEST_PROTOCOL)
        except Exception:
            before_blob = None
            before = copy.deepcopy(before)
        fn(self, *params)
        after = tuple(getattr(self, attr) for attr in attrs)
        if before_blob is not None:
            try:
                if pickle.dumps(after, pickle.HIGHEST_PROTOCOL) == before_blob:
                    return
            except Exception:
                pass
            # The bytes moved (or the after-state became unpicklable):
            # materialise the snapshot and compare precisely, so encoding
            # noise can never raise a spurious violation.
            before = pickle.loads(before_blob)
        for attr, old, new in zip(attrs, before, after):
            if new != old:
                raise InheritanceError(
                    f"{self.name}: effect of {klass.__name__} for action "
                    f"{name!r} modified parent variable {attr!r}"
                )

    def is_enabled(self, action: Action) -> bool:
        """Whether ``action`` can be taken in the current state."""
        kind = self._signature.get(action.name)
        if kind is None:
            return False
        if kind is ActionKind.INPUT:
            return self.accepts(action)
        return self.precondition(action)

    def apply(self, action: Action) -> None:
        """Take a step with ``action``, executing its effects atomically."""
        if not self.step_if_enabled(action.name, action.params):
            raise ActionNotEnabled(f"{self.name}: {action!r} is not enabled")

    def step_if_enabled(self, name: str, params: Tuple[Any, ...]) -> bool:
        """Take a step with ``name(*params)`` if it is enabled in the current
        state, and return whether it was taken; a refused step leaves the
        state untouched.  :meth:`apply` without the :class:`Action`: the
        chain is looked up once.  An override of
        :meth:`apply` (an end-point's crash handling) is not consulted;
        the verdict engine's spec replays step through here."""
        kind = self._signature.get(name)
        if kind is None:
            raise UnknownAction(f"{self.name}: unknown action {name!r}")
        compiled = self._compiled_for(name)
        if kind is not ActionKind.INPUT:
            level = params
            for fn, projection in compiled.pre_chain:
                if fn is not None and not fn(self, *level):
                    return False
                if projection is not None:
                    level = tuple(projection(*level))
        self._run_effects(name, params, compiled)
        return True

    def apply_enabled(self, action: Action) -> None:
        """:meth:`apply` for an action the caller found enabled in the
        current state (a drain's just-enumerated candidate): the effects
        and the version bump, without evaluating the precondition again.
        Strict mode evaluates it anyway and raises if it fails.  The
        verdict engine's spec replays also step through here on purpose
        an action the spec refused, to go on past a refusal they do not
        report; they build non-strict specs."""
        if self.strict and not self.precondition(action):
            raise ActionNotEnabled(f"{self.name}: {action!r} is not enabled")
        self._run_effects(action.name, action.params, self._compiled_for(action.name))

    # ------------------------------------------------------------------
    # candidate enumeration
    # ------------------------------------------------------------------

    def candidates(self, action_name: str) -> Iterable[Tuple[Any, ...]]:
        """Parameter tuples worth testing for a locally controlled action."""
        fn = getattr(self, f"_candidates_{method_suffix(action_name)}", None)
        if fn is None:
            return ()
        return fn()

    def enabled_actions(self) -> List[Action]:
        """All currently enabled locally controlled actions (one per binding).

        Hot path: uses the compiled chains; action ordering (signature
        order, then candidate order) is identical to
        :meth:`naive_enabled_actions`.
        """
        enabled = []
        for name, compiled in self._locally_controlled_compiled():
            candidates = compiled.candidates
            if candidates is None:
                continue
            pre_chain = compiled.pre_chain
            for raw in candidates(self):
                params = tuple(raw)
                level_params = params
                satisfied = True
                for fn, projection in pre_chain:
                    if fn is not None and not fn(self, *level_params):
                        satisfied = False
                        break
                    if projection is not None:
                        level_params = tuple(projection(*level_params))
                if satisfied:
                    enabled.append(Action(name, params))
        return enabled

    def naive_enabled_actions(self) -> List[Action]:
        """Reflective-oracle twin of :meth:`enabled_actions`.

        Recomputes the enabled set with the original getattr/MRO walk;
        differential tests assert it matches the compiled path exactly
        (same actions, same order).
        """
        enabled = []
        for name in self.locally_controlled():
            for params in self.candidates(name):
                action = Action(name, tuple(params))
                if self._naive_precondition(action):
                    enabled.append(action)
        return enabled

    def _naive_precondition(self, action: Action) -> bool:
        if action.name not in self._signature:
            raise UnknownAction(f"{self.name}: unknown action {action.name!r}")
        if self._signature[action.name] is ActionKind.INPUT:
            return True
        for _klass, fn, params in self._walk("_pre_", action):
            if not fn(self, *params):
                return False
        return True

    # ------------------------------------------------------------------
    # tasks (fairness)
    # ------------------------------------------------------------------

    def tasks(self) -> Dict[str, List[str]]:
        """Task partition: by default each locally controlled action is a task.

        This is the convention the paper uses for its end-point automata
        ("each locally controlled action is defined to be a task by
        itself").
        """
        return {name: [name] for name in self.locally_controlled()}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
