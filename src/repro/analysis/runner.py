"""The analysis driver: load targets, run R1-R6 and SUP, apply suppressions."""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.discovery import TargetSet, load_targets
from repro.analysis.findings import Finding
from repro.analysis.rules import check_class_target, check_r4, make_class_index
from repro.analysis.suppressions import SuppressionIndex
from repro.analysis.writes import ClassIndex

# Packages whose code feeds deterministic replay (R4 applies).
DEFAULT_DET_SCOPE: Tuple[str, ...] = (
    "repro.ioa",
    "repro.spec",
    "repro.core",
    "repro.chaos",
    "repro.links",
    "repro.membership",
    "repro.net",
    "repro.scale",
    "repro.apps",
    "repro.checking.verdict",
    "repro.wire",
)

# The fast-lane module rule R6 pins against its replay claims.
_FASTPATH_MODULE = "repro.core.fastpath"


@dataclass
class Report:
    """The outcome of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    modules: int = 0
    classes: int = 0
    elapsed: float = 0.0

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.active

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "modules": self.modules,
                "classes": self.classes,
                "errors": sum(1 for f in self.active if f.severity.value == "error"),
                "warnings": sum(
                    1 for f in self.active if f.severity.value == "warning"
                ),
                "suppressed": len(self.suppressed),
                "elapsed_seconds": round(self.elapsed, 3),
            },
        }


def _in_scope(module_name: str, scope: Sequence[str]) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in scope
    )


def _suppression_index_for(
    path: str, by_path: Dict[str, SuppressionIndex]
) -> Optional[SuppressionIndex]:
    index = by_path.get(path)
    if index is None and path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                index = SuppressionIndex(handle.read().splitlines())
        except OSError:
            return None
        by_path[path] = index
    return index


def _apply_suppressions(
    findings: List[Finding], targets: TargetSet
) -> List[Finding]:
    by_path: Dict[str, SuppressionIndex] = {
        module.path: module.suppressions for module in targets.modules
    }
    out: List[Finding] = []
    for finding in findings:
        index = _suppression_index_for(finding.location.file, by_path)
        lines = finding.anchors or (finding.location.line,)
        if index is not None and index.allows(finding.rule, finding.rule_id, lines):
            finding = replace(finding, suppressed=True)
        out.append(finding)
    return out


def analyze(
    specs: Sequence[str],
    *,
    det_scope: Optional[Sequence[str]] = None,
    respect_suppressions: bool = True,
    strict_parity: bool = False,
) -> Report:
    """Run the verifier over ``specs`` (dotted names or paths).

    ``det_scope`` limits R4 to modules under the given dotted prefixes
    (defaults to :data:`DEFAULT_DET_SCOPE`); R1-R3 and R5 run on every
    discovered :class:`~repro.ioa.automaton.Automaton` subclass, R6 on
    the fast-lane module and SUP on every module.
    """
    start = time.perf_counter()
    scope = tuple(det_scope) if det_scope is not None else DEFAULT_DET_SCOPE
    targets = load_targets(tuple(specs))
    index = make_class_index(targets)

    findings: List[Finding] = []
    for class_target in targets.classes:
        findings.extend(check_class_target(class_target, targets, index))
    for module in targets.modules:
        if _in_scope(module.name, scope):
            findings.extend(check_r4(module))
        if module.name == _FASTPATH_MODULE:
            findings.extend(_run_fastpath(module, index))
        findings.extend(_check_suppression_hygiene(module))
    if strict_parity:
        findings.extend(_run_parity(index))

    findings.sort(key=lambda f: (f.location.file, f.location.line, f.rule_id))
    if respect_suppressions:
        findings = _apply_suppressions(findings, targets)

    return Report(
        findings=findings,
        modules=len(targets.modules),
        classes=len(targets.classes),
        elapsed=time.perf_counter() - start,
    )


def _run_parity(index: ClassIndex) -> List[Finding]:
    from repro.analysis.parity import run_strict_parity

    return run_strict_parity(index)


def _run_fastpath(module, index: ClassIndex) -> List[Finding]:
    from repro.analysis.fastlane import check_fastpath

    return check_fastpath(module, index)


def _known_suppression_ids() -> set:
    from repro.analysis.findings import RULE_CATALOGUE

    coarse = {rule_id.split(".", 1)[0] for rule_id in RULE_CATALOGUE}
    return set(RULE_CATALOGUE) | coarse


_RULE_ID_SHAPE = re.compile(r"^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z0-9_-]+)?$")


def _check_suppression_hygiene(module) -> List[Finding]:
    """SUP.unknown-rule: every declared allow id must exist in the catalogue.

    Only tokens shaped like rule ids are validated: prose placeholders in
    docstrings (``allow[...]``) are not waivers and are left alone.
    """
    from repro.analysis.findings import Location, Severity

    known = _known_suppression_ids()
    findings: List[Finding] = []
    for lineno in sorted(module.suppressions.declared):
        for rule_id in sorted(module.suppressions.declared[lineno]):
            if rule_id in known or not _RULE_ID_SHAPE.match(rule_id):
                continue
            findings.append(Finding(
                rule="SUP",
                check="unknown-rule",
                severity=Severity.ERROR,
                location=Location(
                    file=module.path, line=lineno, module=module.name
                ),
                explanation=(
                    f"'# repro: allow[{rule_id}]' names no rule in the "
                    "catalogue; the waiver is dead and suppresses nothing "
                    "(see --list-rules for valid ids)"
                ),
                anchors=(lineno,),
            ))
    return findings
