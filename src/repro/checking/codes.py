"""The stable violation-code registry of the verdict engine.

Every rule the verdict engine (:mod:`repro.checking.verdict`) can run is
registered here under a short, stable code (``VS-*`` for the GCS
properties of Sections 3-7, ``MBRSHP-*`` for the membership service of
Figure 2, ``RUN-*`` for runtime-level findings that are not trace
rules).  Codes are the contract between the checker and everything
downstream of it - CI artifacts, shrunk chaos findings, golden-trace
comparisons - so they never change meaning and are never reused.

Violations are ordered deterministically by

1. witness index (earliest event first),
2. rule class, in :data:`CLASS_ORDER`,
3. lexical code.

The class order puts the *contract* codes (the paper's properties by
name) ahead of the *refinement* code (trace inclusion in the executable
spec stack).  Self Inclusion, Local Monotonicity, Self Delivery and
Virtual Synchrony are conjuncts of the replayed specs' ``view``
preconditions, so a refused step fails several codes at once: it
reports the one that sorts first, and ``VS-SPEC-REFINE`` (or
``MBRSHP-CONF``) only when no selected code names a failing conjunct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class CodeInfo:
    """One registered violation code and its documentation."""

    code: str
    rule_class: str  # one of CLASS_ORDER
    title: str
    paper_ref: str
    complexity: str  # documented complexity in n = |trace|, p = |processes|
    trace_rule: bool = True  # False: runtime finding, not checkable on a trace

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "class": self.rule_class,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "complexity": self.complexity,
            "trace_rule": self.trace_rule,
        }


#: Deterministic tiebreak order of rule classes on a shared witness index.
CLASS_ORDER: Tuple[str, ...] = (
    "contract",
    "refinement",
    "membership",
    "golden",
    "liveness",
    "runtime",
)

_CLASS_RANK = {name: rank for rank, name in enumerate(CLASS_ORDER)}


REGISTRY: Dict[str, CodeInfo] = {
    info.code: info
    for info in (
        CodeInfo(
            "VS-SELF-INCL",
            "contract",
            "Self Inclusion: every view delivered to p contains p",
            "Section 3.1",
            "O(n * p) (the FullSafetySpec and MbrshpSpec replays)",
        ),
        CodeInfo(
            "VS-MONO",
            "contract",
            "Local Monotonicity: view identifiers at each process strictly increase",
            "Section 3.1",
            "O(n * p) (the FullSafetySpec and MbrshpSpec replays)",
        ),
        CodeInfo(
            "VS-SELF-DLV",
            "contract",
            "Self Delivery: p delivers its own messages before leaving the view",
            "Figure 7",
            "O(n * p) (the FullSafetySpec replay)",
        ),
        CodeInfo(
            "VS-VSYNC",
            "contract",
            "Virtual Synchrony: co-movers deliver the same messages in the old view",
            "Section 4.1",
            "O(n * p) (the FullSafetySpec replay)",
        ),
        CodeInfo(
            "VS-TRANS-SET",
            "contract",
            "Transitional Set: T is correct and agreed among co-movers",
            "Property 4.1",
            "O(n * p^2) worst case (p^2 pairwise checks per view change)",
        ),
        CodeInfo(
            "VS-SPEC-REFINE",
            "refinement",
            "Trace inclusion in WV_RFIFO + VS_RFIFO + SELF",
            "Figures 4, 5, 7",
            "O(n * p) (set_cut inference builds a p-vector per view step)",
        ),
        CodeInfo(
            "MBRSHP-CONF",
            "membership",
            "Membership notices are a behaviour of the MBRSHP automaton",
            "Figure 2",
            "O(n)",
        ),
        CodeInfo(
            "MBRSHP-SRV-FORK",
            "membership",
            "One view identifier denotes one view across every observation",
            "Section 8 (server fault domain: recovery must not fork)",
            "O(n)",
        ),
        CodeInfo(
            "MBRSHP-SRV-MONO",
            "membership",
            "An origin server's formed view counters strictly increase",
            "Section 8 (server fault domain: durable counter watermark)",
            "O(n)",
        ),
        CodeInfo(
            "VS-SKEL",
            "golden",
            "Observed trace skeleton refines the recorded golden skeleton",
            "substrate equivalence (E21)",
            "O(n)",
        ),
        CodeInfo(
            "VS-LIVE",
            "liveness",
            "Stabilised run: all members deliver the final view and its messages",
            "Property 4.2",
            "O(n * p)",
        ),
        CodeInfo(
            "RUN-STALL",
            "runtime",
            "The run stalled (settle timeout) under a masked fault model",
            "Section 9 (masking assumption)",
            "n/a (runtime finding, not a trace rule)",
            trace_rule=False,
        ),
        CodeInfo(
            "RUN-FRAME",
            "runtime",
            "A socket frame could not be encoded or decoded (counted, connection closed)",
            "Figure 3 (CO_RFIFO over a real byte stream)",
            "n/a (runtime finding, not a trace rule)",
            trace_rule=False,
        ),
        CodeInfo(
            "RUN-RESIDENCY",
            "runtime",
            "Buffered messages at a clean soak audit exceed the residency limit",
            "Section 5.1 (acknowledgement GC; soak mode, E20)",
            "n/a (runtime finding, not a trace rule)",
            trace_rule=False,
        ),
    )
}

#: The trace rules run by default when no golden skeleton / final view is given.
DEFAULT_CODES: Tuple[str, ...] = (
    "VS-SELF-INCL",
    "VS-MONO",
    "VS-SELF-DLV",
    "VS-VSYNC",
    "VS-TRANS-SET",
    "VS-SPEC-REFINE",
    "MBRSHP-CONF",
    "MBRSHP-SRV-FORK",
    "MBRSHP-SRV-MONO",
)

#: The safety subset: every GCS property, no membership conformance.
SAFETY_CODES: Tuple[str, ...] = (
    "VS-SELF-INCL",
    "VS-MONO",
    "VS-SELF-DLV",
    "VS-VSYNC",
    "VS-TRANS-SET",
    "VS-SPEC-REFINE",
)


def class_rank(code: str) -> int:
    """The ordering rank of ``code``'s rule class (registry-backed)."""
    return _CLASS_RANK[REGISTRY[code].rule_class]


def violation_sort_key(code: str, witness_index: int) -> Tuple[int, int, str]:
    """The deterministic ordering of violations in a verdict."""
    return (witness_index, class_rank(code), code)


__all__ = [
    "CLASS_ORDER",
    "CodeInfo",
    "DEFAULT_CODES",
    "REGISTRY",
    "SAFETY_CODES",
    "class_rank",
    "violation_sort_key",
]
