"""Static verifier for the I/O-automaton DSL (``python -m repro lint``).

Checks, without executing a single transition:

- **R1 precondition purity** - ``_pre_*`` bodies (and helpers they
  reach) never write automaton state or call effects.
- **R2 inheritance conformance** - a class's ``_eff_*`` write-sets stay
  within its own ``_state`` variables; the static mirror of the runtime
  strict mode (the inheritance construct of [26]).
- **R3 signature coherence** - SIGNATURE entries, DSL methods, and
  PARAM_PROJECTIONS keys form a closed, unambiguous vocabulary.
- **R4 determinism hygiene** - no unseeded randomness, wall clocks, or
  set-order iteration inside replay-critical packages.
- **R5 interference** - concurrently enabled locally controlled actions
  with conflicting read/write footprints need a declared ordering.
- **R6 fast-lane conformance** - a ``FastLane`` replay body writes only
  end-point state its claimed transition chains write.
- **SUP suppression hygiene** - every ``allow[...]`` names a real rule.

R1, R2, R5 and R6 share one footprint engine
(:mod:`repro.analysis.writes`); R6 runs it with the end-point as owner.
"""

from repro.analysis.discovery import AnalysisError, load_targets
from repro.analysis.findings import Finding, Location, RULE_CATALOGUE, Severity
from repro.analysis.runner import DEFAULT_DET_SCOPE, Report, analyze

__all__ = [
    "AnalysisError",
    "DEFAULT_DET_SCOPE",
    "Finding",
    "Location",
    "RULE_CATALOGUE",
    "Report",
    "Severity",
    "analyze",
    "load_targets",
]
