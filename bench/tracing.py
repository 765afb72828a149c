"""Spans around the calls into each layer, installed from outside.

:func:`installed` wraps public functions of every ``src/repro`` layer
(and the benchmark's own wait loop) for the duration of a ``with``
block and removes the wrappers afterwards; nothing under ``src/`` is
edited.  A span records name, layer, start, end, the span that caused
it, and the id of the operation (one ``Deployment`` call) it belongs
to.  Spans stay in memory; :meth:`Tracer.write` dumps them at exit.

Nesting is exact on one thread: synchronous wrappers push and pop a
stack; *operation* spans (the ``Deployment`` calls the benchmark awaits)
stay on the stack across their awaits, so work other tasks do meanwhile
is their child; coroutines other tasks run concurrently
(``TcpTransport.send_many``, ``read_frame``) are traced slice by slice -
a span is open only while its coroutine actually holds the thread.  A
span's **self time** is its duration minus its children's, so per-layer
self times plus the roots' own self time ("unattributed": the event
loop, epoll, deployment glue) add up to the total operation wall time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Tuple

import repro.deploy.base as deploy_base
import repro.runtime.tcp as tcp_module
from repro.core.fastpath import FastLane
from repro.core.runner import EndpointRunner
from repro.deploy import AsyncDeployment, Deployment, SimDeployment, TcpDeployment
from repro.links import LinkCore
from repro.membership.oracle import OracleMembership
from repro.membership.server import MembershipServer
from repro.membership.tier import MembershipTier
from repro.net import EventScheduler, SimNetwork
from repro.runtime.tcp import TcpTransport
from repro.runtime.transport import AsyncHub

import bench.segment as segment_module

LAYERS = ("core", "links", "net", "runtime", "membership", "scale", "checking")
ROOT_LAYER = "op"

_perf = time.perf_counter

# Span record fields (a list, mutated in place while the span is open).
_PARENT, _OP, _LAYER, _NAME, _START, _END, _BUSY, _CHILD = range(8)

#: Called when a span closes: (tracer, span, args, result).
Tally = Callable[["Tracer", List[Any], Tuple[Any, ...], Any], None]


class Tracer:
    """Records spans and boundary counters for one traced segment."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.stack: List[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        #: Self seconds per layer inside operations; ROOT_LAYER holds the
        #: operations' own (unattributed) time.  Sums to ``wall``.
        self.self_s: Counter = Counter()
        self.wall = 0.0
        self.round_ms: List[float] = []
        self._round_started: Optional[float] = None
        self._round_ended: Optional[float] = None

    # -- span bookkeeping ------------------------------------------------

    def open(self, layer: str, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if parent < 0 and layer == ROOT_LAYER:
            self.op += 1
        self.spans.append([parent, self.op, layer, name, 0.0, 0.0, 0.0, 0.0])
        return len(self.spans) - 1

    def push(self, index: int) -> float:
        self.stack.append(index)
        return _perf()

    def pop(self, index: int, started: float) -> None:
        ended = _perf()
        stack, spans = self.stack, self.spans
        if stack.pop() != index:
            raise RuntimeError(f"span stack out of order while closing span {index}")
        span = spans[index]
        if not span[_START]:
            span[_START] = started
        span[_END] = ended
        elapsed = ended - started
        span[_BUSY] += elapsed
        layer = span[_LAYER]
        if stack:
            # Credit whoever actually encloses this slice (for a sliced
            # coroutine that can differ from the span that opened it).
            enclosing = spans[stack[-1]]
            enclosing[_CHILD] += elapsed
            if spans[stack[0]][_LAYER] == ROOT_LAYER:
                self.self_s[layer] += elapsed
                self.self_s[enclosing[_LAYER]] -= elapsed
        elif layer == ROOT_LAYER:
            self.wall += elapsed
            self.self_s[ROOT_LAYER] += elapsed

    @property
    def root_name(self) -> str:
        return self.spans[self.stack[0]][_NAME] if self.stack else ""

    # -- the membership round of one reconfiguration ---------------------

    def round_began(self, started: float) -> None:
        if self._round_started is None:
            self._round_started = started

    def round_view(self, ended: float) -> None:
        self._round_ended = ended

    def round_closed(self) -> None:
        if self._round_started is not None and self._round_ended is not None:
            self.round_ms.append((self._round_ended - self._round_started) * 1e3)
        self._round_started = self._round_ended = None

    def write(self, path: Path) -> None:
        """One CSV line per span: what ran, under what, for how long."""
        with path.open("w") as out:
            out.write("span,parent,op,layer,name,start_us,busy_us,self_us\n")
            origin = self.spans[0][_START] if self.spans else 0.0
            for index, span in enumerate(self.spans):
                out.write(
                    f"{index},{span[_PARENT]},{span[_OP]},{span[_LAYER]},{span[_NAME]},"
                    f"{(span[_START] - origin) * 1e6:.1f},{span[_BUSY] * 1e6:.2f},"
                    f"{(span[_BUSY] - span[_CHILD]) * 1e6:.2f}\n"
                )


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _sync(tracer: Tracer, layer: str, name: str, fn: Callable, tally: Optional[Tally]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(layer, name)
        started = tracer.push(index)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.pop(index, started)
            if tally is not None:
                tally(tracer, tracer.spans[index], args, result)

    return wrapper


def _awaited(tracer: Tracer, layer: str, name: str, fn: Callable, tally: Optional[Tally]) -> Callable:
    """A coroutine the benchmark task awaits: on the stack for its whole wall time."""

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(layer, name)
        started = tracer.push(index)
        result = None
        try:
            result = await fn(*args, **kwargs)
            return result
        finally:
            tracer.pop(index, started)
            if tally is not None:
                tally(tracer, tracer.spans[index], args, result)

    return wrapper


class _Sliced:
    """Awaitable that keeps a span open only while its coroutine runs."""

    def __init__(self, tracer: Tracer, index: int, coroutine: Any) -> None:
        self.tracer = tracer
        self.index = index
        self.coroutine = coroutine

    def __await__(self) -> Iterator[Any]:
        tracer, index, coroutine = self.tracer, self.index, self.coroutine
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            started = tracer.push(index)
            try:
                if error is not None:
                    pending, error = coroutine.throw(error), None
                else:
                    pending = coroutine.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.pop(index, started)
            try:
                value = yield pending
            except BaseException as raised:  # cancellation included: forward it
                error = raised


def _sliced(tracer: Tracer, layer: str, name: str, fn: Callable, tally: Optional[Tally]) -> Callable:
    """A coroutine other tasks run concurrently; carries no counters."""
    if tally is not None:
        raise ValueError("sliced spans take no tally")

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return _Sliced(tracer, tracer.open(layer, name), fn(*args, **kwargs))

    return wrapper


# ----------------------------------------------------------------------
# counters taken at the same boundaries
# ----------------------------------------------------------------------


def _lane(tracer: Tracer, span: List[Any], args: Tuple[Any, ...], result: Any) -> None:
    tracer.counts["lane_calls"] += 1
    if result:
        tracer.counts["lane_hits"] += 1


def _drain(tracer: Tracer, span: List[Any], args: Tuple[Any, ...], result: Any) -> None:
    if result and tracer.root_name == "reconfigure":
        tracer.counts["reconf_drain_actions"] += result


def _outbound(tracer: Tracer, span: List[Any], args: Tuple[Any, ...], result: Any) -> None:
    if result is not None:
        tracer.counts["wire_msgs"] += len(result.copies)


def _inbound_batch(tracer: Tracer, span: List[Any], args: Tuple[Any, ...], result: Any) -> None:
    tracer.counts["inbound_batches"] += 1
    tracer.counts["inbound_copies"] += len(args[3])


def _step(tracer: Tracer, span: List[Any], args: Tuple[Any, ...], result: Any) -> None:
    if result:
        tracer.counts["net_events"] += 1


def _frame(tracer: Tracer, span: List[Any], args: Tuple[Any, ...], result: Any) -> None:
    # encode_batch frames through encode_frame: count the inner call only.
    if result is not None:
        tracer.counts["frames"] += 1
        tracer.counts["frame_bytes"] += len(result)


def _notice(tracer: Tracer, span: List[Any], args: Tuple[Any, ...], result: Any) -> None:
    if tracer.root_name == "reconfigure":
        tracer.counts["reconf_notices"] += 1


def _view_notice(tracer: Tracer, span: List[Any], args: Tuple[Any, ...], result: Any) -> None:
    _notice(tracer, span, args, result)
    tracer.round_view(span[_END])


def _round_start(tracer: Tracer, span: List[Any], args: Tuple[Any, ...], result: Any) -> None:
    if tracer.root_name == "reconfigure":
        tracer.round_began(span[_START])


def _reconfigured(tracer: Tracer, span: List[Any], args: Tuple[Any, ...], result: Any) -> None:
    tracer.counts["reconfigurations"] += 1
    tracer.round_closed()


#: (owner, attribute, layer, wrapper kind, tally)
_Target = Tuple[Any, str, str, Callable, Optional[Tally]]


def _targets() -> List[_Target]:
    targets: List[_Target] = []
    for backend in (SimDeployment, AsyncDeployment, TcpDeployment):
        targets += [
            (backend, "setup", ROOT_LAYER, _awaited, None),
            (backend, "send", ROOT_LAYER, _awaited, None),
            (backend, "settle", ROOT_LAYER, _awaited, None),
            (backend, "reconfigure", ROOT_LAYER, _awaited, _reconfigured),
        ]
    targets += [
        # The benchmark's own wait is part of the operation it waits for.
        (segment_module, "_delivered_everywhere", ROOT_LAYER, _awaited, None),
        (Deployment, "verdict", ROOT_LAYER, _sync, None),
        (EndpointRunner, "app_send", "core", _sync, None),
        (EndpointRunner, "receive", "core", _sync, None),
        (EndpointRunner, "receive_batch", "core", _sync, None),
        (EndpointRunner, "membership_start_change", "core", _sync, _notice),
        (EndpointRunner, "membership_view", "core", _sync, _view_notice),
        (EndpointRunner, "drain", "core", _sync, _drain),
        (FastLane, "try_send", "core", _sync, _lane),
        (FastLane, "try_receive", "core", _sync, _lane),
        (LinkCore, "outbound", "links", _sync, _outbound),
        (LinkCore, "inbound", "links", _sync, None),
        (LinkCore, "inbound_batch", "links", _sync, _inbound_batch),
        (SimNetwork, "send", "net", _sync, None),
        (EventScheduler, "step", "net", _sync, _step),
        (AsyncHub, "send", "runtime", _sync, None),
        (TcpTransport, "send_many", "runtime", _sliced, None),
        (tcp_module, "encode_frame", "runtime", _sync, _frame),
        (tcp_module, "encode_batch", "runtime", _sync, None),
        (tcp_module, "read_frame", "runtime", _sliced, None),
        (MembershipTier, "set_members", "membership", _sync, _round_start),
        (MembershipServer, "on_message", "membership", _sync, None),
        (OracleMembership, "reconfigure", "membership", _sync, _round_start),
        (deploy_base, "run_verdict", "checking", _sync, None),
    ]
    return targets


def _traced_install_overlay(tracer: Tracer, install: Callable) -> Callable:
    """``install_overlay`` that also wraps what it installed.

    The interceptors are closures on each runner and the flush timers are
    callbacks handed to ``overlay.schedule``; both are only reachable
    after installation.
    """

    @functools.wraps(install)
    def wrapper(deployment: Any, **kwargs: Any) -> Any:
        overlay = install(deployment, **kwargs)
        for runner in overlay.runners.values():
            if runner.wire_interceptor is not None:
                runner.wire_interceptor = _sync(
                    tracer, "scale", "wire_interceptor", runner.wire_interceptor, None
                )
            if runner.receive_interceptor is not None:
                runner.receive_interceptor = _sync(
                    tracer, "scale", "receive_interceptor", runner.receive_interceptor, None
                )
        schedule = overlay.schedule
        overlay.schedule = lambda delay, callback: schedule(
            delay, _sync(tracer, "scale", "flush_timer", callback, None)
        )
        return overlay

    return wrapper


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore."""
    originals: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attribute, layer, kind, tally in _targets():
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, kind(tracer, layer, attribute.lstrip("_"), original, tally))
        install = segment_module.install_overlay
        originals.append((segment_module, "install_overlay", install))
        segment_module.install_overlay = _traced_install_overlay(tracer, install)
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
