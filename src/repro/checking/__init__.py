"""Executable verification of the paper's properties and proofs.

* :mod:`repro.checking.events` - the canonical observable-event trace.
* :mod:`repro.checking.verdict` - the verdict engine: one black-box
  trace rule per specified property (Sections 3.1, 4.1, 4.2), run in a
  single pass to a coded :class:`Verdict` (``.raise_for()`` to raise).
* :mod:`repro.checking.codes` - the stable violation-code registry.
* :mod:`repro.checking.invariants` - the invariants of Sections 6-7 as
  state predicates (hookable after every scheduler step).
* :mod:`repro.checking.refinement` - the refinement mappings R, R', TS
  of Section 6 as step-by-step simulation checkers.
"""

from repro.checking.events import (
    BlockEvent,
    BlockOkEvent,
    CrashEvent,
    DeliverEvent,
    GcsEvent,
    GcsTrace,
    MbrshpFormEvent,
    MbrshpStartChangeEvent,
    MbrshpViewEvent,
    RecoverEvent,
    SendEvent,
    ViewEvent,
)
from repro.checking.invariants import (
    ALL_INVARIANTS,
    WorldView,
    check_invariants,
    invariant_hook,
)
from repro.checking.codes import (
    CLASS_ORDER,
    DEFAULT_CODES,
    REGISTRY,
    SAFETY_CODES,
    CodeInfo,
)
from repro.checking.refinement import (
    SafetyRefinementChecker,
    TraceSkeleton,
    TransSetRefinementChecker,
    attach_refinement_checkers,
    extract_skeleton,
)
from repro.checking.verdict import (
    SOUNDNESS,
    Verdict,
    VerdictMonitor,
    Violation,
    run_verdict,
)

__all__ = [
    "ALL_INVARIANTS",
    "BlockEvent",
    "BlockOkEvent",
    "CLASS_ORDER",
    "CodeInfo",
    "CrashEvent",
    "DEFAULT_CODES",
    "DeliverEvent",
    "GcsEvent",
    "GcsTrace",
    "MbrshpFormEvent",
    "MbrshpStartChangeEvent",
    "MbrshpViewEvent",
    "REGISTRY",
    "RecoverEvent",
    "SAFETY_CODES",
    "SOUNDNESS",
    "SafetyRefinementChecker",
    "SendEvent",
    "TraceSkeleton",
    "TransSetRefinementChecker",
    "Verdict",
    "VerdictMonitor",
    "ViewEvent",
    "Violation",
    "WorldView",
    "attach_refinement_checkers",
    "check_invariants",
    "extract_skeleton",
    "invariant_hook",
    "run_verdict",
]
