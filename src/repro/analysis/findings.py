"""Finding model and the rule catalogue of the static verifier.

Each rule encodes one clause of the paper's structural discipline:

``R1``
    preconditions are *predicates* - Section 2's transition relation is
    defined by pure guards, so a ``_pre_*`` body (or any helper it
    calls) must never write automaton state.

``R2``
    the inheritance construct of [26] (Section 2): a child's added
    effects never modify state variables owned by an ancestor level.
    Statically mirrors the runtime strict-mode ownership check.

``R3``
    signature coherence: every SIGNATURE action resolves to the methods
    the framework will actually call, and every ``_pre_*``/``_eff_*``/
    ``_candidates_*`` method and PARAM_PROJECTIONS key maps back to a
    declared action.  Catches the ``_pre_veiw``-typo class of bugs that
    otherwise yields a silently never-enabled action.

``R4``
    determinism hygiene: chaos schedules (PR 3) must replay byte for
    byte, so the model and chaos packages may not consult wall clocks,
    unseeded module-level randomness, or hash-order set iteration.

``R5``
    interference: two concurrently-enabled locally controlled actions of
    one automaton whose static footprints (repro.analysis.interference)
    conflict must have a documented ordering barrier - the class
    ``ORDERING`` tuple the runner's drain consumes - or an explicit
    ``allow[R5]`` waiver for genuine spec nondeterminism.

``R6``
    fast-lane conformance: the straight-line replay bodies of
    ``repro.core.fastpath.FastLane`` may write only endpoint state the
    transition chains they claim to replay (``REPLAYED_ACTIONS``) write,
    and no lane attribute may hold endpoint state but the version counter.

``SUP``
    suppression hygiene: every ``# repro: allow[...]`` must name rules
    the catalogue knows, or the waiver is silently dead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Location:
    """Where a finding points: a file, a line, and the object context."""

    file: str
    line: int
    module: str = ""
    obj: str = ""  # e.g. "CoRfifoSpec._pre_co_rfifo_deliver"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass(frozen=True)
class Finding:
    """One verifier diagnostic with a stable rule identity.

    ``rule`` is the coarse id ("R1".."R4"); ``check`` the sub-check slug
    ("R3" has several).  ``rule_id`` - the stable identifier surfaced in
    JSON output and matched by ``# repro: allow[...]`` suppressions - is
    ``"{rule}.{check}"``.  ``anchors`` lists the extra source lines
    (enclosing ``def``, enclosing ``class``, SIGNATURE entry) at which a
    suppression comment also silences the finding.
    """

    rule: str
    check: str
    severity: Severity
    location: Location
    explanation: str
    suppressed: bool = False
    anchors: Tuple[int, ...] = field(default=(), compare=False)

    @property
    def rule_id(self) -> str:
        return f"{self.rule}.{self.check}"

    def render(self) -> str:
        obj = f" [{self.location.obj}]" if self.location.obj else ""
        sup = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.location}: {self.rule_id} {self.severity.value}{sup}:"
            f"{obj} {self.explanation}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "check": self.check,
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "file": self.location.file,
            "line": self.location.line,
            "module": self.location.module,
            "object": self.location.obj,
            "explanation": self.explanation,
            "suppressed": self.suppressed,
        }


# Stable catalogue: rule_id -> (summary, the paper clause it encodes).
RULE_CATALOGUE: Dict[str, Tuple[str, str]] = {
    "R1.write": (
        "a _pre_* body (or a helper it calls) writes automaton state",
        "Section 2: preconditions are pure predicates over the state",
    ),
    "R1.calls-effect": (
        "a _pre_* body calls into an _eff_* method",
        "Section 2: evaluating a guard must not take the transition",
    ),
    "R2.parent-write": (
        "a class's _eff_* writes a state variable owned by an ancestor",
        "Section 2 / [26]: child effects never modify parent-owned state",
    ),
    "R2.parity": (
        "static ownership disagrees with the runtime strict-mode tables",
        "the static and dynamic enforcers of [26] must agree",
    ),
    "R3.input-precondition": (
        "an INPUT action has a _pre_* method that is never evaluated",
        "Section 2: input actions are enabled in every state",
    ),
    "R3.missing-candidates": (
        "a locally controlled action has no reachable _candidates_*",
        "executability: locally controlled actions need finite bindings",
    ),
    "R3.dangling-method": (
        "a _pre_*/_eff_*/_candidates_* method matches no declared action",
        "signature extension: every method must resolve to an action",
    ),
    "R3.unknown-projection": (
        "a PARAM_PROJECTIONS key names no declared action",
        "signature extension: projections rebind declared actions only",
    ),
    "R3.suffix-collision": (
        "two distinct action names collide onto one method suffix",
        "method resolution: the name->suffix map must stay injective",
    ),
    "R3.bad-kind": (
        "a SIGNATURE value is not an ActionKind",
        "Section 2: every action is input, output, or internal",
    ),
    "R4.unseeded-random": (
        "module-level random.* call (unseeded process-global RNG)",
        "chaos replay: seeds must reproduce schedules byte for byte",
    ),
    "R4.wall-clock": (
        "wall-clock read (time.time / datetime.now) in model code",
        "chaos replay: model time is the simulated clock only",
    ),
    "R4.set-iteration": (
        "iteration over a set expression (hash order) in model code",
        "chaos replay: orders feeding schedules must be deterministic",
    ),
    "R5.conflict": (
        "concurrently-enabled actions with interfering footprints and "
        "no ordering barrier",
        "Section 2: unordered interfering transitions are a race unless "
        "the schedule serialises them",
    ),
    "R5.read-parity": (
        "a precondition's runtime reads exceed its static read-set",
        "the footprint engine and the live automaton must agree on what "
        "guards depend on",
    ),
    "R6.spurious-write": (
        "a fast-lane replay body writes state its claimed transition "
        "chains never write",
        "Section 4-5: the lane is a peephole over the same state - every "
        "mutation must be an effect the general engine performs",
    ),
    "R6.lane-state": (
        "a fast-lane attribute, or an item stored under one, holds "
        "endpoint state other than the version counter",
        "the lane keeps no state of its own: a cached reference can hide "
        "a write from R6 or go stale across a view change",
    ),
    "R6.unknown-replay": (
        "REPLAYED_ACTIONS and the fast-lane class body disagree",
        "fastpath conformance is only as good as its replay bookkeeping",
    ),
    "SUP.unknown-rule": (
        "a '# repro: allow[...]' names a rule id the catalogue does not",
        "a dead waiver hides nothing and will surprise someone later",
    ),
}
