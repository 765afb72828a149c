"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the broad failure classes below.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.checking.verdict import Violation


class ReproError(Exception):
    """Base class of all errors raised by the repro package."""


class SpecificationViolation(ReproError):
    """A trace or a step violates one of the paper's specifications.

    Raised by :meth:`repro.checking.verdict.Verdict.raise_for` - then
    ``violation`` is the verdict's primary
    :class:`~repro.checking.verdict.Violation` (stable code, earliest
    witness index) and the message is its ``describe()`` line - and by
    the invariant and refinement checkers, which have no trace witness
    and leave ``violation`` None.
    """

    def __init__(self, message: str = "", *, violation: Optional["Violation"] = None) -> None:
        super().__init__(message)
        self.violation = violation


class InvariantViolation(SpecificationViolation):
    """One of the paper's invariants (6.1-6.13, 7.1, 7.2) failed to hold."""


class RefinementViolation(SpecificationViolation):
    """A refinement mapping could not simulate an algorithm step."""


class ActionNotEnabled(ReproError):
    """An automaton was asked to perform an action whose precondition is false."""


class UnknownAction(ReproError):
    """An action name does not appear in an automaton's signature."""


class AmbiguousActionName(ReproError):
    """Two distinct action names collide onto one method suffix.

    ``method_suffix`` maps dots to underscores (``co_rfifo.send`` ->
    ``co_rfifo_send``), which is lossy: ``a.b_c`` and ``a_b.c`` would
    both resolve ``_pre_a_b_c``.  The registry in
    :mod:`repro.ioa.action` rejects the second name so the wrong
    precondition can never be silently attached to an action.
    """


class CompositionError(ReproError):
    """Automata cannot be composed (e.g. clashing output actions)."""


class InheritanceError(ReproError):
    """The inheritance construct of [26] was violated.

    The most important case: a child automaton's added effects modified a
    state variable owned by its parent, which would void the Proof
    Extension theorem.
    """


class TransportError(ReproError):
    """A transport-layer failure in the runtime or simulator."""


class FrameError(TransportError):
    """Bytes that are not a frame of the wire format (:mod:`repro.wire`).

    ``reason`` is one short stable word - ``truncated``, ``oversized``,
    ``version``, ``hello``, ``tag``, ``intern``, ``utf8``, ``trailing``,
    ``value`` or ``depth`` - which the link core counts a refused frame
    by (``LinkCore.frame_errors``).  The encoder raises it for a frame
    over the size limit; the decoder raises nothing else.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class SettleTimeoutError(ReproError):
    """A deployment failed to reach the awaited state within its timeout.

    Raised by the event-driven settling helpers (in place of the former
    unbounded sleep-polling loops) with a description of which processes
    were still unsettled and what state they were observed in.

    When the stall happened under a chaos schedule, ``schedule``
    describes the fault model and the operations still pending at the
    time of the timeout, so a CI log alone is enough to see what the
    deployment was being subjected to when it stopped converging.
    """

    def __init__(self, message: str = "", *, schedule: str | None = None) -> None:
        if schedule:
            message = f"{message}\npending fault schedule: {schedule}"
        super().__init__(message)
        self.schedule = schedule


class ClientMisuseError(ReproError):
    """The application violated the blocking-client contract (Fig. 12).

    For example, it sent a message while blocked, or acknowledged a block
    request it never received.
    """


class CrashedError(ReproError):
    """An operation was attempted on a crashed end-point (Section 8)."""
