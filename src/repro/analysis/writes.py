"""Static footprint (read/write-set) and purity analysis of automaton methods.

The engine answers, for one method body, "which ``self`` attributes can
this code write, and which can it read?" - where *write* covers plain
assignment, augmented assignment, ``del``, subscript stores, calls to
known mutator methods (``append``, ``setdefault``, ...) and mutator
functions (``bisect.insort``, ``heapq.heappush``, ...), including
through local aliases (``buffers = self.msgs[q]; del buffers[view]``
counts as a write to ``msgs``), and *read* covers attribute loads and
subscript loads rooted at ``self``.  Tuple-unpacking assignments alias
pairwise (``bufs, log = self.msgs[q], self.log`` makes later mutations
through either name visible), and a chained assignment binds every
target (``log = cache = self.msgs[q]``).  Helper calls on ``self`` are
resolved along the static MRO and folded in transitively, so a
precondition that reaches a memoizing helper is still caught.

The visitor is one engine with two clients.  R1, R2, R5 and the chaos
POR gate run it with ``self`` as the owner of the state; rule R6
(:mod:`repro.analysis.fastlane`) subclasses it to scan fast-lane code,
whose owner is the end-point the lane holds.  The subclass overrides
only hooks - the owner test, the root lookup
(:meth:`_EffectsVisitor._root`), the root a store writes, alias binding
and owner calls; every statement handler is written here once.

Subscript accesses are *key sensitive* where the key is statically
classifiable: a key that is a method parameter records as ``p:<name>``,
a literal as ``k:<repr>``, anything else as ``None`` (may alias any
key).  Two constant keys that differ provably touch different entries;
every other combination conservatively may alias (see
:func:`keys_may_alias`).  Keys are only attached when the subscript base
is directly a ``self`` attribute - an aliased base may sit at a
different nesting depth, so attaching its key would be unsound.

Deliberately not modelled (documented analyzer limits): mutation through
values returned by non-accessor method calls of an automaton (R6's
owner does resolve the end-point helpers the lane calls),
``setattr``/``getattr`` indirection, and aliasing through containers.
The runtime strict-mode fingerprints (and the ``--strict-parity``
read-fingerprint probe) remain the backstop for those.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

# Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
        "add",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "rotate",
        "difference_update",
        "intersection_update",
        "symmetric_difference_update",
        # repro collection types (MessageLog)
        "put",
        "truncate_through",
    }
)

# Module-level functions that mutate their *first argument* in place
# (the bisect/heapq idiom: ``insort(self.log, x)``).
MUTATOR_FUNCTIONS = frozenset(
    {
        "insort",
        "insort_left",
        "insort_right",
        "heappush",
        "heappop",
        "heappushpop",
        "heapreplace",
        "heapify",
    }
)

# Accessor methods whose return value still aliases (part of) the
# receiver, so writes through it count against the receiver's root.
ACCESSOR_METHODS = frozenset({"get", "setdefault", "__getitem__"})

# Framework methods on ``self`` that change state by definition.
FRAMEWORK_MUTATORS = frozenset({"touch", "reset_state", "apply", "enable_optional_actions"})

#: The framework's monotone version counter.  Every action bumps it, so
#: the interference relation excludes it (see repro.analysis.interference).
VERSION_ATTR = "_state_version"


@dataclass(frozen=True)
class Write:
    """One state write: the root attribute, where, and how.

    ``key`` is the subscript-key classification when the write targets
    one entry of a keyed container directly under the attribute
    (``p:<param>``, ``k:<repr>``, or ``None`` for whole-value /
    unclassifiable accesses).
    """

    attr: str
    line: int
    reason: str
    containing_def_line: int
    key: Optional[str] = None


@dataclass(frozen=True)
class Read:
    """One state read: the root attribute, where, and the subscript key."""

    attr: str
    line: int
    containing_def_line: int
    key: Optional[str] = None


@dataclass
class MethodEffects:
    """The statically visible effects of one method body."""

    name: str
    def_line: int
    writes: List[Write] = field(default_factory=list)
    reads: List[Read] = field(default_factory=list)
    helper_calls: Set[str] = field(default_factory=set)  # self.m(...)
    super_calls: Set[str] = field(default_factory=set)  # super().m(...)
    eff_calls: List[Tuple[str, int]] = field(default_factory=list)  # (_eff_*, line)


def keys_may_alias(k1: Optional[str], k2: Optional[str]) -> bool:
    """Whether two subscript-key classifications can denote the same entry.

    Only two *distinct constants* are provably different; a parameter may
    take any value, and ``None`` (whole/unknown) aliases everything.
    """
    if k1 is None or k2 is None:
        return True
    if k1.startswith("k:") and k2.startswith("k:"):
        return k1 == k2
    return True


class _EffectsVisitor(ast.NodeVisitor):
    """Single pass over a method body collecting writes, reads and calls."""

    def __init__(self, fn: ast.FunctionDef) -> None:
        self.effects = MethodEffects(name=fn.name, def_line=fn.lineno)
        self.aliases: Dict[str, Optional[str]] = {}
        self._def_line = fn.lineno
        self._params = self._param_names(fn)
        # AST nodes whose read was already recorded (or deliberately
        # skipped: method-name attributes of owner calls) at a more
        # key-precise site; identity-keyed because nodes are visited once.
        self._consumed: Set[int] = set()

    @staticmethod
    def _param_names(fn: ast.FunctionDef) -> Set[str]:
        args = fn.args
        names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
        names.discard("self")
        return names

    def _key_of(self, slice_node: ast.expr) -> Optional[str]:
        if isinstance(slice_node, ast.Name) and slice_node.id in self._params:
            return f"p:{slice_node.id}"
        if isinstance(slice_node, ast.Constant):
            return f"k:{slice_node.value!r}"
        return None

    # -- the owner and root lookup -------------------------------------------

    def _owner(self, node: ast.expr) -> bool:
        """Whether ``node`` is the object whose state attributes count."""
        return isinstance(node, ast.Name) and node.id == "self"

    def _owner_attribute(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and self._owner(node.value)

    def _root(self, node: ast.expr) -> Optional[str]:
        """The owner's state attribute an expression's value is rooted in."""
        if isinstance(node, ast.Attribute):
            return node.attr if self._owner(node.value) else self._root(node.value)
        if isinstance(node, ast.Subscript):
            return self._root(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ACCESSOR_METHODS:
                return self._root(func.value)
            return None
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        return None

    # -- write recording ----------------------------------------------------

    def _record(
        self, attr: Optional[str], line: int, reason: str, key: Optional[str] = None
    ) -> None:
        if attr is not None:
            self.effects.writes.append(Write(attr, line, reason, self._def_line, key))

    def _record_read(
        self, attr: Optional[str], line: int, key: Optional[str] = None
    ) -> None:
        if attr is not None:
            self.effects.reads.append(Read(attr, line, self._def_line, key))

    def _written_root(self, target: ast.expr) -> Tuple[Optional[str], Optional[str]]:
        """(root attribute, subscript key) a store-context target writes."""
        if isinstance(target, ast.Attribute):
            if self._owner(target.value):
                return target.attr, None  # self.x = ...
            return self._root(target.value), None  # self.a.b = / alias.b =
        if isinstance(target, ast.Subscript):
            root = self._root(target.value)  # self.a[k] = / alias[k] =
            key = self._key_of(target.slice) if self._owner_attribute(target.value) else None
            return root, key
        return None, None

    def _handle_target(self, target: ast.expr, line: int, reason: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
            elements = target.elts if not isinstance(target, ast.Starred) else [target.value]
            for element in elements:
                self._handle_target(element, line, reason)
            return
        root, key = self._written_root(target)
        self._record(root, line, reason, key)
        if isinstance(target, ast.Subscript):
            self.visit(target.slice)  # keys may themselves read state
        if isinstance(target, ast.Name):
            # a rebound local no longer aliases what it used to
            self.aliases[target.id] = None

    def _bind_aliases(self, target: ast.expr, value: ast.expr) -> None:
        """Alias targets to the state roots of ``value``, pairwise for unpacks."""
        if isinstance(target, ast.Name):
            self.aliases[target.id] = self._root(value)
            return
        if isinstance(target, ast.Starred):
            self._bind_aliases(target.value, value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if (
                isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(target.elts)
                and not any(isinstance(e, ast.Starred) for e in target.elts)
            ):
                # bufs, log = self.msgs[q], self.log  - pairwise aliasing
                for element, element_value in zip(target.elts, value.elts):
                    self._bind_aliases(element, element_value)
            else:
                # a, b = self.pair - every name may alias the one root
                root = self._root(value)
                for element in target.elts:
                    inner = element.value if isinstance(element, ast.Starred) else element
                    if isinstance(inner, ast.Name):
                        self.aliases[inner.id] = root

    def _owner_call(self, name: str, line: int) -> None:
        """A call of one of the owner's own methods (``self.m(...)``)."""
        if name.startswith("_eff_"):
            self.effects.eff_calls.append((name, line))
        elif name in FRAMEWORK_MUTATORS:
            self._record(VERSION_ATTR, line, f"call to self.{name}()")
        else:
            self.effects.helper_calls.add(name)

    # -- statements ---------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_target(target, node.lineno, "assignment")
        for target in node.targets:
            self._bind_aliases(target, node.value)  # a = b = value binds both
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_target(node.target, node.lineno, "assignment")
            self._bind_aliases(node.target, node.value)
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            # read the alias before _handle_target clears the binding
            root = self.aliases.get(node.target.id)
            self._record(root, node.lineno, "augmented assignment through alias")
            self._record_read(root, node.lineno)
        else:
            root, key = self._written_root(node.target)
            self._record_read(root, node.lineno, key)  # x += 1 also reads x
        self._handle_target(node.target, node.lineno, "augmented assignment")
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                root, _key = self._written_root(target)
                reason = (
                    "del of attribute" if self._owner_attribute(target) else "del of item"
                )
                self._record(root, node.lineno, reason)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if self._owner(receiver):
                self._owner_call(func.attr, node.lineno)
                # the attribute is a method name, not a state read
                self._consumed.add(id(func))
            elif func.attr in MUTATOR_METHODS:
                key = (
                    self._key_of(receiver.slice)
                    if isinstance(receiver, ast.Subscript)
                    and self._owner_attribute(receiver.value)
                    else None
                )
                self._record(
                    self._root(receiver),
                    node.lineno,
                    f"call to mutator .{func.attr}()",
                    key,
                )
            elif func.attr in MUTATOR_FUNCTIONS and node.args and \
                    self._root(receiver) is None:
                # bisect.insort(self.log, x) - mutates its first argument
                self._record(
                    self._root(node.args[0]),
                    node.lineno,
                    f"call to mutator function {func.attr}()",
                )
            # super().m(...) resolves past the defining class in the MRO
            if (
                isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super"
            ):
                self._consumed.add(id(func))
                if func.attr.startswith("_eff_"):
                    self.effects.eff_calls.append((func.attr, node.lineno))
                else:
                    self.effects.super_calls.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in MUTATOR_FUNCTIONS and node.args:
            # from bisect import insort; insort(self.log, x)
            self._record(
                self._root(node.args[0]),
                node.lineno,
                f"call to mutator function {func.id}()",
            )
        self.generic_visit(node)

    # -- read recording -----------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and id(node) not in self._consumed:
            self._record_read(self._root(node), node.lineno)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load) and self._owner_attribute(node.value):
            # self.msgs[q] - a key-sensitive read; consume the inner
            # attribute so the unkeyed read does not swallow the key.
            self._record_read(node.value.attr, node.lineno, self._key_of(node.slice))
            self._consumed.add(id(node.value))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # nested defs (incl. lambdas via generic_visit) still count: their
        # writes happen when the closure runs, and preconditions must not
        # even construct state-mutating closures.
        self.generic_visit(node)


def method_effects(
    fn: ast.FunctionDef, visitor: Optional[_EffectsVisitor] = None
) -> MethodEffects:
    """Run ``visitor`` (by default the ``self``-owned engine) over ``fn``."""
    if visitor is None:
        visitor = _EffectsVisitor(fn)
    for statement in fn.body:
        visitor.visit(statement)
    return visitor.effects


# ---------------------------------------------------------------------------
# per-class resolution
# ---------------------------------------------------------------------------


def methods_of(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """The function definitions in one class body (most nesting ignored)."""
    return {
        item.name: item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class ClassIndex:
    """Lazy per-class method-AST and effects cache over a static MRO."""

    def __init__(self, class_def_for) -> None:
        self._class_def_for = class_def_for
        self._methods: Dict[type, Dict[str, ast.FunctionDef]] = {}
        self._effects: Dict[Tuple[type, str], Optional[MethodEffects]] = {}

    def methods(self, cls: type) -> Dict[str, ast.FunctionDef]:
        cached = self._methods.get(cls)
        if cached is None:
            node = self._class_def_for(cls)
            cached = methods_of(node) if node is not None else {}
            self._methods[cls] = cached
        return cached

    def own_effects(self, cls: type, name: str) -> Optional[MethodEffects]:
        key = (cls, name)
        if key not in self._effects:
            fn = self.methods(cls).get(name)
            self._effects[key] = method_effects(fn) if fn is not None else None
        return self._effects[key]

    def resolve(self, cls: type, name: str, after: Optional[type] = None):
        """(defining class, effects) for ``name`` along ``cls.__mro__``.

        ``after`` resolves ``super()`` calls: the search starts past that
        class in the MRO.
        """
        mro = list(cls.__mro__)
        if after is not None and after in mro:
            mro = mro[mro.index(after) + 1:]
        for klass in mro:
            if name in self.methods(klass):
                return klass, self.own_effects(klass, name)
            # Runtime-visible methods without parseable AST (builtins,
            # dynamically attached) end the search conservatively.
            if name in vars(klass):
                return klass, None
        return None, None

    def closure(
        self, cls: type, name: str, *, _origin: Optional[type] = None
    ) -> Tuple[List[Write], List[Tuple[str, int]]]:
        """Transitive (writes, eff-calls) of ``cls``'s method ``name``.

        Helper calls on ``self`` are folded in, resolved along the MRO of
        ``cls``; cycles and unknown methods are ignored.
        """
        writes: List[Write] = []
        eff_calls: List[Tuple[str, int]] = []
        seen: Set[Tuple[type, str]] = set()

        def expand(method: str, after: Optional[type]) -> None:
            defining, effects = self.resolve(cls, method, after=after)
            if defining is None or effects is None or (defining, method) in seen:
                return
            seen.add((defining, method))
            writes.extend(effects.writes)
            eff_calls.extend(effects.eff_calls)
            for helper in sorted(effects.helper_calls):
                # plain self.helper() dispatches on the most-derived class
                expand(helper, None)
            for helper in sorted(effects.super_calls):
                # super().helper() resolves past the class that called it
                expand(helper, defining)

        expand(name, _origin)
        return writes, eff_calls

    def chain_footprint(
        self, cls: type, name: str
    ) -> Tuple[List[Write], List[Read]]:
        """Union of (writes, reads) over *every* MRO definition of ``name``.

        The effect-chain semantics of the DSL run every definition along
        the chain (unlike plain dispatch, which ``closure`` models), so
        an action's footprint must fold all of them, plus the helpers
        each transitively reaches.
        """
        writes: List[Write] = []
        reads: List[Read] = []
        seen: Set[Tuple[type, str]] = set()

        def fold(effects: MethodEffects, after: Optional[type]) -> None:
            writes.extend(effects.writes)
            reads.extend(effects.reads)
            for helper in sorted(effects.helper_calls):
                expand(helper, None)
            for helper in sorted(effects.super_calls):
                expand(helper, after)

        def expand(method: str, after: Optional[type]) -> None:
            defining, effects = self.resolve(cls, method, after=after)
            if defining is None or effects is None or (defining, method) in seen:
                return
            seen.add((defining, method))
            fold(effects, defining)

        for klass in cls.__mro__:
            if (klass, name) in seen or name not in self.methods(klass):
                continue
            effects = self.own_effects(klass, name)
            if effects is None:
                continue
            seen.add((klass, name))
            fold(effects, klass)
        return writes, reads

    def state_writes(self, cls: type) -> Dict[str, Write]:
        """Attributes ``cls``'s *own* ``_state`` creates (name -> write)."""
        effects = self.own_effects(cls, "_state")
        if effects is None:
            return {}
        result: Dict[str, Write] = {}
        for write in effects.writes:
            result.setdefault(write.attr, write)
        return result

    def owners(self, cls: type) -> Dict[str, type]:
        """attr -> owning class, as ``_init_state_chain`` assigns them (base first)."""
        owners: Dict[str, type] = {}
        for klass in reversed(cls.__mro__):
            for attr in self.state_writes(klass):
                owners.setdefault(attr, klass)
        return owners
