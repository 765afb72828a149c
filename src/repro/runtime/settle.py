"""Event-driven settling for the asyncio and TCP deployments.

The runtime formerly waited for convergence by sleep-polling
(``await asyncio.sleep(0.002)`` in a loop), which is slow when the
condition is already true, wasteful when it is not, and hangs CI forever
when a protocol bug keeps it false.  :func:`await_settled` replaces all
of those loops: callers hand in a *predicate* and an :class:`asyncio.Event`
that progress-making code sets, and get either a prompt return or a
:class:`~repro.errors.SettleTimeoutError` carrying a description of the
stuck state.  The one wait for "no message in transit",
:meth:`repro.runtime.fabric.Fabric.quiesce`, is such a wait on the link
core's in-flight ledger: quiescence is counted, never timed.
"""

from __future__ import annotations

import asyncio
import os
from typing import Callable, Mapping, Optional

from repro.core.runner import EndpointRunner
from repro.errors import SettleTimeoutError
from repro.types import ProcessId

DEFAULT_TIMEOUT = 10.0

# Environment override for every settling deadline in the runtime.  Chaos
# schedules stretch convergence (retransmission penalties, jitter), and
# CI machines are slower than laptops; rather than threading a knob
# through every cluster and deployment constructor, one variable rescales
# them all.
ENV_TIMEOUT = "REPRO_SETTLE_TIMEOUT"


def settle_timeout(fallback: float = DEFAULT_TIMEOUT) -> float:
    """The effective settle timeout: ``$REPRO_SETTLE_TIMEOUT`` or ``fallback``.

    Read at call time, not import time, so tests and CI jobs can adjust
    it per run.  An unparsable value fails loudly - a silently ignored
    timeout override is exactly the kind of CI mystery this exists to
    prevent.
    """
    raw = os.environ.get(ENV_TIMEOUT)
    if raw is None or not raw.strip():
        return fallback
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{ENV_TIMEOUT}={raw!r} is not a number") from None
    if value <= 0:
        raise ValueError(f"{ENV_TIMEOUT}={raw!r} must be positive")
    return value


async def await_settled(
    predicate: Callable[[], bool],
    event: asyncio.Event,
    *,
    timeout: Optional[float] = None,
    describe: Optional[Callable[[], str]] = None,
) -> None:
    """Wait until ``predicate()`` holds, woken by ``event``.

    The event must be set by whatever code can make the predicate become
    true (message handlers, view installation, ...).  To avoid the classic
    lost-wakeup race the event is cleared *before* each predicate check:
    a wake-up arriving between check and wait is then never dropped.

    Raises :class:`SettleTimeoutError` after ``timeout`` seconds
    (default: :func:`settle_timeout`, i.e. ``$REPRO_SETTLE_TIMEOUT`` or
    ``DEFAULT_TIMEOUT``), with ``describe()`` (if given) appended to the
    error message.
    """
    if timeout is None:
        timeout = settle_timeout()
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        event.clear()
        if predicate():
            return
        remaining = deadline - loop.time()
        if remaining <= 0:
            detail = f": {describe()}" if describe is not None else ""
            raise SettleTimeoutError(
                f"condition not reached within {timeout:.1f}s{detail}"
            )
        try:
            await asyncio.wait_for(event.wait(), remaining)
        except asyncio.TimeoutError:
            pass  # fall through to the deadline check / final predicate try


def describe_views(nodes: Mapping[ProcessId, EndpointRunner]) -> str:
    """Render ``pid -> current view`` for settle-timeout diagnostics."""
    return ", ".join(
        f"{pid}={node.current_view!r}{' blocked' if node.blocked else ''}"
        for pid, node in sorted(nodes.items())
    )


__all__ = [
    "DEFAULT_TIMEOUT",
    "ENV_TIMEOUT",
    "await_settled",
    "describe_views",
    "settle_timeout",
]
