"""--strict-parity: cross-check static analysis against the runtime.

Two probes, same philosophy - the analyzer and the live automaton are
parallel enforcers and must not drift apart:

* **ownership parity** (``R2.parity``): composes one real
  :class:`SimWorld` with ``strict=True``, reads the ownership table the
  runtime recorded (``endpoint._owners``), and diffs it against the
  owners the analyzer predicted for the same class.

* **read parity** (``R5.read-parity``): instruments an automaton with a
  recording ``__getattribute__``, evaluates each enabled action's
  precondition through ``is_enabled``, and diffs the state attributes
  the guard *actually* touched against the static read-set the footprint
  engine extracted for its ``_pre_`` chain.  A runtime read the analyzer
  cannot see (``getattr`` indirection, exec-style dynamism) means the
  interference relation under-approximates and R5's verdicts cannot be
  trusted for that automaton.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Set, Tuple, Type

from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.writes import ClassIndex


def _class_location(cls: type) -> Location:
    try:
        path = inspect.getsourcefile(cls) or ""
        _lines, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        path, line = "", 0
    return Location(file=path, line=line, module=cls.__module__, obj=cls.__qualname__)


def diff_ownership(
    cls: type, runtime_owners: Dict[str, type], index: ClassIndex
) -> List[Finding]:
    """R2.parity findings for every static/runtime ownership mismatch."""
    static = index.owners(cls)
    location = _class_location(cls)
    findings: List[Finding] = []

    def emit(explanation: str) -> None:
        findings.append(Finding(
            rule="R2",
            check="parity",
            severity=Severity.ERROR,
            location=location,
            explanation=explanation,
            anchors=(location.line,),
        ))

    for attr in sorted(set(static) - set(runtime_owners)):
        emit(
            f"static analysis predicts state variable {attr!r} (created in "
            f"{static[attr].__name__}._state) but the runtime ownership "
            "table has no such variable; a _state body is conditional or "
            "the write-set analysis over-approximates"
        )
    for attr in sorted(set(runtime_owners) - set(static)):
        emit(
            f"the runtime ownership table records state variable {attr!r} "
            f"(owned by {runtime_owners[attr].__name__}) that static "
            "analysis cannot see; a _state body creates attributes "
            "dynamically (setattr, helpers the analyzer cannot parse)"
        )
    for attr in sorted(set(static) & set(runtime_owners)):
        if static[attr] is not runtime_owners[attr]:
            emit(
                f"ownership of state variable {attr!r} disagrees: static "
                f"analysis assigns it to {static[attr].__name__}, the "
                f"runtime to {runtime_owners[attr].__name__}"
            )
    return findings


def _make_read_probe(cls: type) -> type:
    """A subclass whose instances log attribute reads while armed."""

    class _ReadProbe(cls):  # type: ignore[misc, valid-type]
        def __getattribute__(self, name: str):
            log = object.__getattribute__(self, "__dict__").get("_probe_read_log")
            if log is not None and not name.startswith("__"):
                log.add(name)
            return super().__getattribute__(name)

    _ReadProbe.__name__ = f"{cls.__name__}ReadProbe"
    _ReadProbe.__qualname__ = _ReadProbe.__name__
    return _ReadProbe


def diff_read_fingerprints(
    cls: type,
    index: ClassIndex,
    factory: Optional[Callable[[type], object]] = None,
    steps: int = 8,
) -> List[Finding]:
    """R5.read-parity findings for preconditions with invisible reads.

    Instantiates a recording probe of ``cls`` (by default as
    ``cls("read-probe")``) and walks up to ``steps`` locally controlled
    transitions, re-evaluating every enabled action's guard under
    instrumentation before each step.  Only reads of *state attributes*
    (those ``_state`` bodies create) count; the comparison is one-sided -
    runtime reads missing from the static set are drift, static
    over-approximation is harmless for soundness of the interference
    relation.
    """
    probe_cls = _make_read_probe(cls)
    instance = factory(probe_cls) if factory is not None else probe_cls("read-probe")
    state_attrs = set(index.owners(cls))
    location = _class_location(cls)
    findings: List[Finding] = []
    reported: Set[Tuple[str, Tuple[str, ...]]] = set()

    def check_guard(action) -> None:
        suffix = action.name.replace(".", "_")
        _writes, static_reads = index.chain_footprint(cls, f"_pre_{suffix}")
        static_attrs = {read.attr for read in static_reads}
        log: Set[str] = set()
        instance.__dict__["_probe_read_log"] = log
        try:
            instance.is_enabled(action)
        finally:
            del instance.__dict__["_probe_read_log"]
        hidden = tuple(sorted((log & state_attrs) - static_attrs))
        if not hidden or (action.name, hidden) in reported:
            return
        reported.add((action.name, hidden))
        attrs = ", ".join(repr(a) for a in hidden)
        findings.append(Finding(
            rule="R5",
            check="read-parity",
            severity=Severity.ERROR,
            location=location,
            explanation=(
                f"evaluating the guard of {action.name!r} read state "
                f"variable(s) {attrs} that the static read-set of its "
                f"_pre_{suffix} chain does not contain; the footprint "
                "engine under-approximates this automaton (getattr "
                "indirection or dynamism it cannot parse), so R5's "
                "interference verdicts cannot be trusted here"
            ),
            anchors=(location.line,),
        ))

    # Drive a short run so guards are evaluated in non-initial states
    # too: fingerprint every enabled action, take one step, repeat.
    for _step in range(steps):
        actions = instance.enabled_actions()
        for action in actions:
            check_guard(action)
        if not actions:
            break
        instance.apply(actions[0])
    return findings


def run_strict_parity(
    index: ClassIndex, endpoint_cls: Optional[type] = None
) -> List[Finding]:
    """Compose one strict SimWorld and diff ownership for its endpoints.

    Uses ``gc_views=False`` so the endpoint keeps the exact ownership
    table built at construction, and a constant-latency network because
    no events are ever delivered - construction alone populates
    ``_owners`` via ``_init_state_chain``.
    """
    from repro.net.latency import ConstantLatency
    from repro.net.world import SimWorld

    kwargs = {}
    if endpoint_cls is not None:
        kwargs["endpoint_cls"] = endpoint_cls
    world = SimWorld(
        latency=ConstantLatency(1.0),
        strict=True,
        gc_views=False,
        **kwargs,
    )
    node = world.add_node("parity-probe")
    endpoint = node.endpoint
    runtime_owners: Dict[str, Type] = dict(endpoint._owners)
    findings = diff_ownership(type(endpoint), runtime_owners, index)
    findings.extend(
        diff_read_fingerprints(type(endpoint), index, factory=_seeded_endpoint)
    )
    return findings


def _seeded_endpoint(probe_cls: type):
    """A probe endpoint with one application send applied.

    A freshly constructed endpoint is quiescent (nothing enabled, so
    nothing to fingerprint); one buffered message walks it through the
    send -> co_rfifo.send -> deliver loop, evaluating the real guards.
    """
    from repro.ioa import Action

    probe = probe_cls("read-probe")
    probe.apply(Action("send", (probe.pid, "probe-m1")))
    return probe
