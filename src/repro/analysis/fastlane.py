"""Rule R6 - fast-lane replay conformance.

The :class:`~repro.core.fastpath.FastLane` replays compiled transition
chains as straight-line Python.  Its safety argument is "every mutation
is exactly an effect the general engine would have performed" - which
this checker turns from prose into a lint: each replay body
(``try_send``/``try_receive``) may write only endpoint state that the
union of the write-sets of the automaton actions it claims to replay
(:data:`~repro.core.fastpath.REPLAYED_ACTIONS`) can write, the version
counter included.  A write outside that union is **fastpath drift** -
the class of bug the differential suite catches at test time - reported
as ``R6.spurious-write`` at lint time.

The write-sets come from the one footprint engine of
:mod:`repro.analysis.writes` (the visitor behind R1, R2 and R5), run
with the end-point instead of ``self`` as the owner of the state:
attribute loads ending in ``.endpoint`` (and locals bound from them,
the ``ep = self.endpoint`` idiom) are the owner, and calls to end-point
helpers resolve to the state attribute their return value aliases
(``ep.buffer(...)`` returns a log inside ``msgs``), their own transitive
writes folded in at the call site.

That is sound only because the lane holds no end-point state of its
own, and ``R6.lane-state`` makes it a rule: in any lane method, a lane
attribute - or an item stored under one - may not be bound to a value
rooted in end-point state, the version counter aside.  So no write can
hide behind a lane attribute, and no replay can act on a copy gone
stale.

Only the replay bodies are checked for writes: ``_revalidate`` and
friends are eligibility proofs, not replays.  ``R6.unknown-replay``
enforces the bookkeeping itself: every ``try_*`` method needs a
``REPLAYED_ACTIONS`` entry, every entry must name a real method, and
every claimed action must resolve to an ``_eff_`` definition on the
endpoint class.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.discovery import ModuleTarget
from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.writes import (
    FRAMEWORK_MUTATORS,
    MUTATOR_METHODS,
    VERSION_ATTR,
    ClassIndex,
    _EffectsVisitor,
    method_effects,
    methods_of,
)

_LANE_CLASS = "FastLane"


def _finding(
    check: str,
    path: str,
    module: str,
    line: int,
    obj: str,
    explanation: str,
    anchors: Sequence[int],
) -> Finding:
    return Finding(
        rule="R6",
        check=check,
        severity=Severity.ERROR,
        location=Location(file=path, line=line, module=module, obj=obj),
        explanation=explanation,
        anchors=tuple(dict.fromkeys(anchors)),
    )


def _lane_attr(node: ast.expr) -> Optional[str]:
    """``self.X`` or ``self.X[k]`` -> ``X`` (a lane attribute), else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


class _LaneWrites(_EffectsVisitor):
    """The footprint engine over lane code, with the end-point as owner.

    Overrides only what differs from an automaton body: the owner test
    (and binding ``ep = self.endpoint``), the root of an end-point
    helper's return value, and end-point helper calls.  Every binding of
    a lane attribute, and every store under one, is also checked for
    end-point state (``lane_state``).
    """

    def __init__(self, fn: ast.FunctionDef, endpoint_cls: type, index: ClassIndex) -> None:
        super().__init__(fn)
        self.endpoint_cls = endpoint_cls
        self.index = index
        self.ep_locals: Set[str] = set()
        # (line, lane attribute, end-point attribute) of each lane-state hold
        self.lane_state: List[Tuple[int, str, str]] = []

    def _owner(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "endpoint":
            return True
        return isinstance(node, ast.Name) and node.id in self.ep_locals

    def _root(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and self._owner(node.func.value):
            # ep.buffer(...) - what does the helper return?
            return _helper_return_root(self.endpoint_cls, node.func.attr, self.index)
        return super()._root(node)

    def _hold(self, lane: Optional[str], value: ast.expr) -> None:
        """``value`` goes into lane attribute ``lane``: it must not be
        end-point state other than the version counter."""
        if lane is None:
            return
        root = self._root(value)
        if root is not None and root != VERSION_ATTR:
            self.lane_state.append((value.lineno, lane, root))

    def _bind_aliases(self, target: ast.expr, value: ast.expr) -> None:
        super()._bind_aliases(target, value)
        if isinstance(target, ast.Name):
            if self._owner(value):
                self.ep_locals.add(target.id)
            else:
                self.ep_locals.discard(target.id)
            return
        self._hold(_lane_attr(target), value)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            # self._cache.append(...) / .put(k, ...) stores under the lane
            lane = _lane_attr(func.value)
            for arg in node.args:
                self._hold(lane, arg)
        super().visit_Call(node)

    def _owner_call(self, name: str, line: int) -> None:
        if name in FRAMEWORK_MUTATORS:
            super()._owner_call(name, line)
            return
        # an end-point helper: its transitive writes land at the call site
        writes, _eff = self.index.closure(self.endpoint_cls, name)
        for write in writes:
            self._record(write.attr, line, f"via endpoint helper {name}()")


def _helper_return_root(cls: type, name: str, index: ClassIndex) -> Optional[str]:
    """The end-point state attribute ``cls.name(...)``'s return aliases."""
    for klass in cls.__mro__:
        fn = index.methods(klass).get(name)
        if fn is None:
            continue
        engine = _EffectsVisitor(fn)
        method_effects(fn, engine)  # bind the body's local aliases first
        roots: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                root = engine._root(node.value)
                if root is None:
                    return None  # a non-state return path: no alias claim
                roots.add(root)
        return roots.pop() if len(roots) == 1 else None
    return None


def check_r6(
    index: ClassIndex,
    *,
    module_name: str,
    path: str,
    class_node: ast.ClassDef,
    replays: Mapping[str, Tuple[str, ...]],
    endpoint_cls: type,
) -> List[Finding]:
    """Check one fast-lane class body against its replay claims."""
    findings: List[Finding] = []
    methods = methods_of(class_node)
    qualname = class_node.name

    def emit(check: str, line: int, obj: str, explanation: str, *extra: int) -> None:
        findings.append(_finding(
            check, path, module_name, line,
            f"{qualname}.{obj}" if obj else qualname,
            explanation, [line, *extra, class_node.lineno],
        ))

    # bookkeeping completeness: the replay table and the class agree
    for method_name in sorted(replays):
        if method_name not in methods:
            emit(
                "unknown-replay", class_node.lineno, method_name,
                f"REPLAYED_ACTIONS claims {method_name!r} but {qualname} "
                "defines no such method",
            )
        for action in replays[method_name]:
            suffix = action.replace(".", "_")
            if getattr(endpoint_cls, f"_eff_{suffix}", None) is None:
                line = methods[method_name].lineno if method_name in methods \
                    else class_node.lineno
                emit(
                    "unknown-replay", line, method_name,
                    f"{method_name} claims to replay {action!r} but "
                    f"{endpoint_cls.__name__} has no _eff_{suffix}; the "
                    "claimed chain cannot be resolved",
                )
    for method_name, fn in sorted(methods.items()):
        if method_name.startswith("try_") and method_name not in replays:
            emit(
                "unknown-replay", fn.lineno, method_name,
                f"fast-lane operation {method_name} has no REPLAYED_ACTIONS "
                "entry; R6 cannot check it against any transition chain",
            )

    # one scan per method: what each lane method holds, what each writes
    scans: Dict[str, _LaneWrites] = {}
    for method_name, fn in sorted(methods.items()):
        scan = scans[method_name] = _LaneWrites(fn, endpoint_cls, index)
        method_effects(fn, scan)
        for line, lane, attr in scan.lane_state:
            emit(
                "lane-state", line, method_name,
                f"lane attribute {lane!r} holds endpoint state {attr!r}; the "
                "lane may keep only the version counter - read the endpoint "
                "on every operation",
                fn.lineno,
            )

    for method_name in sorted(replays):
        fn = methods.get(method_name)
        if fn is None:
            continue
        allowed: Set[str] = {VERSION_ATTR}
        for action in replays[method_name]:
            suffix = action.replace(".", "_")
            chain_writes, _reads = index.chain_footprint(
                endpoint_cls, f"_eff_{suffix}"
            )
            allowed.update(write.attr for write in chain_writes)
        reported: Set[Tuple[str, int]] = set()
        claimed = ", ".join(repr(a) for a in replays[method_name])
        for write in scans[method_name].effects.writes:
            if write.attr in allowed or (write.attr, write.line) in reported:
                continue
            reported.add((write.attr, write.line))
            emit(
                "spurious-write", write.line, method_name,
                f"replay body {method_name} writes endpoint state "
                f"{write.attr!r} ({write.reason}), which none of the transition "
                f"chains it claims to replay ({claimed}) writes - "
                "fastpath drift",
                fn.lineno,
            )
    return findings


def check_fastpath(module: ModuleTarget, index: ClassIndex) -> List[Finding]:
    """The production entry: check ``repro.core.fastpath``'s lane."""
    from repro.core.fastpath import REPLAYED_ACTIONS
    from repro.core.gcs_endpoint import GcsEndpoint

    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == _LANE_CLASS:
            return check_r6(
                index,
                module_name=module.name,
                path=module.path,
                class_node=node,
                replays=REPLAYED_ACTIONS,
                endpoint_cls=GcsEndpoint,
            )
    return []


__all__ = ["check_fastpath", "check_r6"]
