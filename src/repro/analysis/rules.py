"""Rule implementations R1-R4 of the automaton verifier."""

from __future__ import annotations

import ast
import difflib
from typing import Dict, Iterable, List, Set, Tuple

from repro.ioa.action import ActionKind

from repro.analysis.discovery import ClassTarget, ModuleTarget, TargetSet, class_def_for
from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.writes import ClassIndex

_LOCALLY_CONTROLLED = (ActionKind.OUTPUT, ActionKind.INTERNAL)
_DSL_PREFIXES = ("_pre_", "_eff_", "_candidates_")

# Module-level functions of the ``random`` module that consume the
# process-global (unseeded) RNG.  ``random.Random(seed)`` is the legal
# alternative and is deliberately absent.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "betavariate",
        "expovariate",
        "getrandbits",
        "seed",
    }
)

_WALL_CLOCK = {
    "time": frozenset({"time", "time_ns"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
}


def _suffix(action_name: str) -> str:
    # The analyzer computes suffixes itself (never via method_suffix) so
    # colliding fixture vocabularies are *reported*, not raised on.
    return action_name.replace(".", "_")


def _merged(cls: type, attr: str) -> Dict[str, ActionKind]:
    merged: Dict[str, ActionKind] = {}
    for klass in reversed(cls.__mro__):
        value = klass.__dict__.get(attr)
        if isinstance(value, dict):
            merged.update(value)
    return merged


class ClassContext:
    """Everything the per-class rules need about one ClassTarget."""

    def __init__(self, target: ClassTarget, index: ClassIndex) -> None:
        self.target = target
        self.cls = target.cls
        self.index = index
        self.own_signature = dict(self.cls.__dict__.get("SIGNATURE") or {})
        self.own_optional = dict(self.cls.__dict__.get("OPTIONAL_SIGNATURE") or {})
        self.own_projections = dict(self.cls.__dict__.get("PARAM_PROJECTIONS") or {})
        self.effective = _merged(self.cls, "SIGNATURE")
        self.effective_optional = _merged(self.cls, "OPTIONAL_SIGNATURE")
        self.vocabulary = {**self.effective, **self.effective_optional}
        self.suffixes = {_suffix(name): name for name in self.vocabulary}
        self.entry_lines = self._dict_entry_lines()
        self.methods = {
            name: fn
            for name, fn in self.index.methods(self.cls).items()
        }

    def _dict_entry_lines(self) -> Dict[Tuple[str, str], int]:
        """(class attr, action name) -> source line of the dict entry."""
        lines: Dict[Tuple[str, str], int] = {}
        for item in self.target.node.body:
            if not isinstance(item, ast.Assign):
                continue
            for target in item.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id not in ("SIGNATURE", "OPTIONAL_SIGNATURE", "PARAM_PROJECTIONS"):
                    continue
                if isinstance(item.value, ast.Dict):
                    for key in item.value.keys:
                        if isinstance(key, ast.Constant) and isinstance(key.value, str):
                            lines[(target.id, key.value)] = key.lineno
        return lines

    def entry_line(self, attr: str, action: str) -> int:
        return self.entry_lines.get((attr, action), self.target.node.lineno)

    def finding(
        self,
        check: str,
        line: int,
        explanation: str,
        *,
        obj: str = "",
        extra_anchors: Iterable[int] = (),
    ) -> Finding:
        rule = check.split(".", 1)[0]
        anchors = tuple(dict.fromkeys(
            [line, *extra_anchors, self.target.node.lineno]
        ))
        return Finding(
            rule=rule,
            check=check.split(".", 1)[1],
            severity=Severity.ERROR,
            location=Location(
                file=self.target.module.path,
                line=line,
                module=self.target.module.name,
                obj=f"{self.cls.__qualname__}{('.' + obj) if obj else ''}",
            ),
            explanation=explanation,
            anchors=anchors,
        )


# ---------------------------------------------------------------------------
# R1 - precondition purity
# ---------------------------------------------------------------------------


def check_r1(ctx: ClassContext) -> List[Finding]:
    findings: List[Finding] = []
    for name, fn in sorted(ctx.methods.items()):
        if not name.startswith("_pre_"):
            continue
        writes, eff_calls = ctx.index.closure(ctx.cls, name)
        for write in writes:
            where = (
                "" if write.containing_def_line == fn.lineno
                else " (via a helper it calls)"
            )
            findings.append(ctx.finding(
                "R1.write",
                write.line,
                f"precondition {name} writes state variable "
                f"{write.attr!r} ({write.reason}){where}; preconditions "
                "must be pure predicates",
                obj=name,
                extra_anchors=(write.containing_def_line, fn.lineno),
            ))
        for eff_name, line in eff_calls:
            findings.append(ctx.finding(
                "R1.calls-effect",
                line,
                f"precondition {name} calls effect method {eff_name}; "
                "evaluating a guard must not take the transition",
                obj=name,
                extra_anchors=(fn.lineno,),
            ))
    return findings


# ---------------------------------------------------------------------------
# R2 - inheritance conformance (the ownership rule of [26])
# ---------------------------------------------------------------------------


def check_r2(ctx: ClassContext) -> List[Finding]:
    findings: List[Finding] = []
    owners = ctx.index.owners(ctx.cls)
    for name, fn in sorted(ctx.methods.items()):
        if not name.startswith("_eff_"):
            continue
        writes, _eff_calls = ctx.index.closure(ctx.cls, name)
        reported: Set[Tuple[str, int]] = set()
        for write in writes:
            owner = owners.get(write.attr)
            if owner is None or owner is ctx.cls:
                continue
            key = (write.attr, write.line)
            if key in reported:
                continue
            reported.add(key)
            where = (
                "" if write.containing_def_line == fn.lineno
                else " (via a helper it calls)"
            )
            findings.append(ctx.finding(
                "R2.parent-write",
                write.line,
                f"effect {name} of {ctx.cls.__name__} writes "
                f"{write.attr!r} ({write.reason}){where}, a state variable "
                f"owned by ancestor {owner.__name__}; the inheritance "
                "construct of [26] forbids child effects from modifying "
                "parent state",
                obj=name,
                extra_anchors=(write.containing_def_line, fn.lineno),
            ))
    return findings


# ---------------------------------------------------------------------------
# R3 - signature coherence
# ---------------------------------------------------------------------------


def check_r3(ctx: ClassContext) -> List[Finding]:
    findings: List[Finding] = []
    cls = ctx.cls

    # kind sanity + per-declaration checks, only for entries this class
    # itself declares (inherited declarations are checked at the ancestor).
    for attr_name, table in (("SIGNATURE", ctx.own_signature),
                             ("OPTIONAL_SIGNATURE", ctx.own_optional)):
        for action, kind in table.items():
            line = ctx.entry_line(attr_name, action)
            if not isinstance(kind, ActionKind):
                findings.append(ctx.finding(
                    "R3.bad-kind",
                    line,
                    f"{attr_name}[{action!r}] is {kind!r}, not an ActionKind",
                ))
                continue
            suffix = _suffix(action)
            if kind is ActionKind.INPUT:
                definer = next(
                    (k for k in cls.__mro__ if f"_pre_{suffix}" in vars(k)), None
                )
                if definer is not None:
                    findings.append(ctx.finding(
                        "R3.input-precondition",
                        line,
                        f"input action {action!r} has a precondition "
                        f"_pre_{suffix} (defined in {definer.__name__}) that "
                        "the framework never evaluates: input actions are "
                        "enabled in every state",
                    ))
            elif kind in _LOCALLY_CONTROLLED and attr_name == "SIGNATURE":
                if getattr(cls, f"_candidates_{suffix}", None) is None:
                    findings.append(ctx.finding(
                        "R3.missing-candidates",
                        line,
                        f"locally controlled action {action!r} has no "
                        f"reachable _candidates_{suffix}; it can never be "
                        "proposed by enabled_actions() and will silently "
                        "never fire",
                    ))

    # dangling methods: every DSL method this class defines must map back
    # to a declared (or declared-optional) action.
    for name, fn in sorted(ctx.methods.items()):
        for prefix in _DSL_PREFIXES:
            if not name.startswith(prefix):
                continue
            suffix = name[len(prefix):]
            if suffix and suffix not in ctx.suffixes:
                close = difflib.get_close_matches(suffix, ctx.suffixes, n=1, cutoff=0.75)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                findings.append(ctx.finding(
                    "R3.dangling-method",
                    fn.lineno,
                    f"method {name} matches no declared action (checked "
                    "SIGNATURE and OPTIONAL_SIGNATURE along the MRO); the "
                    f"framework will never call it{hint}",
                    obj=name,
                ))
            break

    # projections must rebind declared actions.
    for action in ctx.own_projections:
        if action not in ctx.vocabulary:
            findings.append(ctx.finding(
                "R3.unknown-projection",
                ctx.entry_line("PARAM_PROJECTIONS", action),
                f"PARAM_PROJECTIONS key {action!r} names no declared action",
            ))

    # suffix collisions across the effective vocabulary, reported at the
    # class that introduces the second colliding name.
    by_suffix: Dict[str, List[str]] = {}
    for action in sorted(ctx.vocabulary):
        by_suffix.setdefault(_suffix(action), []).append(action)
    for suffix, actions in sorted(by_suffix.items()):
        if len(actions) < 2:
            continue
        if not any(a in ctx.own_signature or a in ctx.own_optional for a in actions):
            continue
        names = ", ".join(repr(a) for a in actions)
        anchor = next(
            (ctx.entry_line("SIGNATURE", a) for a in actions if a in ctx.own_signature),
            ctx.target.node.lineno,
        )
        findings.append(ctx.finding(
            "R3.suffix-collision",
            anchor,
            f"action names {names} all map to method suffix {suffix!r}; "
            "their _pre_/_eff_/_candidates_ methods would be shared "
            "silently (method_suffix raises AmbiguousActionName at runtime)",
        ))
    return findings


# ---------------------------------------------------------------------------
# R4 - determinism hygiene (module-level scan)
# ---------------------------------------------------------------------------


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, target: ModuleTarget) -> None:
        self.target = target
        self.findings: List[Finding] = []
        self.scope_lines: List[int] = []
        # names bound to the random/time/datetime modules or the
        # datetime class, and bare names imported from random.
        self.module_names: Dict[str, str] = {}
        self.random_funcs: Set[str] = set()
        self._scan_imports(target.tree)

    def _scan_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("random", "time", "datetime"):
                        self.module_names[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name in _GLOBAL_RANDOM_FUNCS:
                            self.random_funcs.add(alias.asname or alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.module_names[alias.asname or alias.name] = "datetime"
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in ("time", "time_ns"):
                            self.module_names[alias.asname or alias.name] = "time-func"

    # -- helpers ------------------------------------------------------------

    def _emit(self, check: str, line: int, explanation: str) -> None:
        rule, sub = check.split(".", 1)
        self.findings.append(Finding(
            rule=rule,
            check=sub,
            severity=Severity.ERROR,
            location=Location(
                file=self.target.path, line=line, module=self.target.name
            ),
            explanation=explanation,
            anchors=tuple(dict.fromkeys([line, *self.scope_lines])),
        ))

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if self._is_set_expr(iter_node):
            self._emit(
                "R4.set-iteration",
                iter_node.lineno,
                "iteration over a set expression: the order is hash-seed "
                "dependent and can leak into message or schedule "
                "construction; wrap it in sorted(...)",
            )

    # -- visitors -----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope_lines.append(node.lineno)
        self.generic_visit(node)
        self.scope_lines.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope_lines.append(node.lineno)
        self.generic_visit(node)
        self.scope_lines.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            bound = self.module_names.get(func.value.id)
            if bound == "random" and func.attr in _GLOBAL_RANDOM_FUNCS:
                self._emit(
                    "R4.unseeded-random",
                    node.lineno,
                    f"random.{func.attr}() consumes the process-global RNG; "
                    "use a seeded random.Random instance so chaos schedules "
                    "replay byte for byte",
                )
            elif bound == "time" and func.attr in _WALL_CLOCK["time"]:
                self._emit(
                    "R4.wall-clock",
                    node.lineno,
                    f"time.{func.attr}() reads the wall clock inside model "
                    "code; use the simulated clock",
                )
            elif bound == "datetime" and func.attr in _WALL_CLOCK["datetime"]:
                self._emit(
                    "R4.wall-clock",
                    node.lineno,
                    f"datetime {func.attr}() reads the wall clock inside "
                    "model code; use the simulated clock",
                )
        elif isinstance(func, ast.Name):
            if func.id in self.random_funcs:
                self._emit(
                    "R4.unseeded-random",
                    node.lineno,
                    f"{func.id}() (imported from random) consumes the "
                    "process-global RNG; use a seeded random.Random",
                )
            elif self.module_names.get(func.id) == "time-func":
                self._emit(
                    "R4.wall-clock",
                    node.lineno,
                    f"{func.id}() reads the wall clock inside model code; "
                    "use the simulated clock",
                )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def check_r4(target: ModuleTarget) -> List[Finding]:
    visitor = _DeterminismVisitor(target)
    visitor.visit(target.tree)
    return visitor.findings


# ---------------------------------------------------------------------------
# entry points used by the runner
# ---------------------------------------------------------------------------


def check_class_target(
    target: ClassTarget, targets: TargetSet, index: ClassIndex
) -> List[Finding]:
    # R5 lives in repro.analysis.interference, which imports the footprint
    # engine this module also builds on; import lazily to keep the rule
    # modules cycle-free.
    from repro.analysis.interference import check_r5

    ctx = ClassContext(target, index)
    findings: List[Finding] = []
    findings.extend(check_r1(ctx))
    findings.extend(check_r2(ctx))
    findings.extend(check_r3(ctx))
    findings.extend(check_r5(ctx))
    return findings


def make_class_index(targets: TargetSet) -> ClassIndex:
    return ClassIndex(lambda cls: class_def_for(cls, targets))
