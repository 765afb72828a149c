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
with the end-point instead of ``self`` as the owner of the state.  The
lane subclass resolves the lane's aliasing discipline statically:

* attribute loads ending in ``.endpoint`` (and locals bound from them,
  the ``ep = self.endpoint`` idiom) are the owner;
* lane attributes assigned endpoint-rooted values are **aliases**
  (``self._last_rcvd = ep.last_rcvd`` - mutating the object mutates
  endpoint state), while lane containers that receive endpoint-rooted
  *elements* (``self._src_logs[src] = ep.buffer(...)``) alias through
  their values only - storing into the container is lane-private, but
  anything read out of it roots at the endpoint;
* calls to endpoint helpers resolve to the state attribute their return
  value aliases (``ep.buffer(...)`` returns a log inside ``msgs``), and
  their own transitive writes are folded in.

Only the replay bodies are checked: ``_revalidate`` and friends are
eligibility proofs, not replays (they must not mutate endpoint state
beyond what on-demand helpers like ``buffer`` create, which the replayed
chains write anyway).  ``R6.unknown-replay`` enforces the bookkeeping
itself: every ``try_*`` method needs a ``REPLAYED_ACTIONS`` entry, every
entry must name a real method, and every claimed action must resolve to
an ``_eff_`` definition on the endpoint class.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.discovery import ModuleTarget
from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.writes import (
    FRAMEWORK_MUTATORS,
    VERSION_ATTR,
    ClassIndex,
    MethodEffects,
    _EffectsVisitor,
    method_effects,
    methods_of,
)

_LANE_CLASS = "FastLane"

#: lane-attribute alias kinds (see module docstring)
_ALIAS = "alias"
_CONTAINER = "container"


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
    """``self.X`` -> ``X`` (a lane attribute), else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


class _LaneWrites(_EffectsVisitor):
    """The footprint engine over lane code, with the end-point as owner.

    Overrides only what differs from an automaton body: the owner test
    (and binding ``ep = self.endpoint``), the root of a lane attribute or
    of an end-point helper's return value, stores into a lane container,
    and end-point helper calls.  Every assignment also harvests lane
    attribute aliasing into the shared ``lane_map``.
    """

    def __init__(
        self,
        fn: ast.FunctionDef,
        lane_map: Dict[str, Tuple[str, str]],
        endpoint_cls: type,
        index: ClassIndex,
    ) -> None:
        super().__init__(fn)
        self.lane_map = lane_map
        self.endpoint_cls = endpoint_cls
        self.index = index
        self.ep_locals: Set[str] = set()

    def _owner(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "endpoint":
            return True
        return isinstance(node, ast.Name) and node.id in self.ep_locals

    def _root(self, node: ast.expr) -> Optional[str]:
        lane = _lane_attr(node)
        if lane is not None:
            entry = self.lane_map.get(lane)
            return entry[1] if entry is not None else None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and self._owner(node.func.value):
            # ep.buffer(...) - what does the helper return?
            return _helper_return_root(self.endpoint_cls, node.func.attr, self.index)
        return super()._root(node)

    def _written_root(self, target: ast.expr) -> Tuple[Optional[str], Optional[str]]:
        lane = _lane_attr(target.value) if isinstance(target, ast.Subscript) else None
        if lane in self.lane_map and self.lane_map[lane][0] == _CONTAINER:
            return None, None  # self._src_logs[src] = ... is lane-private
        return super()._written_root(target)

    def _bind_aliases(self, target: ast.expr, value: ast.expr) -> None:
        super()._bind_aliases(target, value)
        if isinstance(target, ast.Name):
            if self._owner(value):
                self.ep_locals.add(target.id)
            else:
                self.ep_locals.discard(target.id)
            return
        root = self._root(value)
        if root is None:
            return
        lane = _lane_attr(target)
        if lane is not None and lane != "endpoint":
            self.lane_map[lane] = (_ALIAS, root)
        elif isinstance(target, ast.Subscript):
            lane = _lane_attr(target.value)
            if lane is not None:
                self.lane_map.setdefault(lane, (_CONTAINER, root))

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

    # lane attribute -> (alias kind, end-point attribute).  Two passes: a
    # lane attribute may be consumed in a method parsed before the one
    # that establishes its aliasing.
    lane_map: Dict[str, Tuple[str, str]] = {}

    def scan(fn: ast.FunctionDef) -> MethodEffects:
        return method_effects(fn, _LaneWrites(fn, lane_map, endpoint_cls, index))

    for _pass in range(2):
        for fn in methods.values():
            scan(fn)

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
        for write in scan(fn).writes:
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
