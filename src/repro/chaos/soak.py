"""Soak mode: unbounded seeded chaos with periodic audits.

A chaos *episode* (:mod:`repro.chaos.runner`) is a dozen operations and
one final audit - enough to find ordering bugs, useless against the
failure modes that need *time*: unbounded buffer growth, watermark drift
after many server crash/recovery cycles, counter wraparound.  A **soak**
runs the same seeded op distribution as an open-ended stream for a
target span of (simulated) time, auditing as it goes:

* every ``audit_every`` operations the deployment is settled and the
  full verdict battery runs over the trace so far - a soak fails at the
  first audit that turns red, not hours later at the end;
* at each clean audit point (no partition or crash outstanding) the
  total number of buffered messages across all endpoints is measured
  and, on the simulator - where the E15 acknowledgement-GC machinery
  (``ack_gc_interval``) is wired in - asserted against a residency
  limit: simulated hours of traffic must run in bounded memory, or the
  "durable tier" story is an out-of-memory story.

On the simulator the time budget is *virtual* (hours of protocol time in
seconds of wall clock); on the asyncio/TCP runtimes it is wall time, so
CI keeps soaks there short.  Everything derives from the seed: quoting
``(backend, seed, servers, duration)`` is quoting the soak.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.faults import FaultInjector
from repro.chaos.plan import ChaosPlan, _ScheduleState
from repro.chaos.runner import ChaosRunner, backend_class, deploy_for, stall_verdict
from repro.checking.verdict import Verdict, run_verdict
from repro.errors import SettleTimeoutError
from repro.types import ProcessId

#: Default acknowledgement-GC interval wired into simulator soaks (the
#: E15 machinery that makes the residency assertion meaningful).
SOAK_ACK_GC_INTERVAL = 16


@dataclass
class SoakReport:
    """The outcome of one soak: audit trail, peak memory, final verdict."""

    backend: str
    seed: int
    servers: int
    duration: float  # requested time span (simulated on "sim", wall otherwise)
    elapsed: float = 0.0  # achieved span
    ops: int = 0  # operations applied
    audits: int = 0  # verdict audits performed (final one included)
    events: int = 0  # trace length at the end
    max_resident: int = 0  # peak buffered messages at any clean audit
    resident_limit: Optional[int] = None  # enforced bound (None: observed only)
    counters: Dict[str, int] = field(default_factory=dict)  # injected faults
    # The latest audit: a trace verdict, or one RUN-STALL / RUN-RESIDENCY
    # finding - whichever stopped the soak.
    verdict: Optional[Verdict] = None

    @property
    def ok(self) -> bool:
        return self.verdict is None or self.verdict.ok

    @property
    def code(self) -> Optional[str]:
        """The stable code of the finding that stopped the soak, if any."""
        return self.verdict.code if self.verdict is not None else None

    def summary(self) -> str:
        status = "ok" if self.ok else f"VIOLATION: {self.verdict.primary.describe()}"
        return (
            f"[{self.backend}] soak seed={self.seed} servers={self.servers} "
            f"elapsed={self.elapsed:.1f}/{self.duration:.1f} ops={self.ops} "
            f"audits={self.audits} events={self.events} "
            f"resident<={self.max_resident}"
            + (f"/{self.resident_limit}" if self.resident_limit is not None else "")
            + f" -> {status}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """The CI artifact: everything needed to judge and replay the soak."""
        return {
            "backend": self.backend,
            "seed": self.seed,
            "servers": self.servers,
            "duration": self.duration,
            "elapsed": self.elapsed,
            "ops": self.ops,
            "audits": self.audits,
            "events": self.events,
            "max_resident": self.max_resident,
            "resident_limit": self.resident_limit,
            "counters": dict(self.counters),
            "ok": self.ok,
            "code": self.code,
            "violation": None if self.ok else self.verdict.primary.describe(),
            "verdict": self.verdict.to_dict() if self.verdict is not None else None,
        }


def default_resident_limit(processes: int, audit_every: int) -> int:
    """The enforced buffered-message bound for simulator soaks.

    Between two audits at most ``audit_every`` sends enter the system,
    each retained by up to ``processes`` receivers until acknowledgement
    GC reclaims it; the constant floor absorbs view-change bursts.  The
    point is not the exact constant but that the bound is *independent
    of soak length* - an hour and a week soak share the same limit.
    """
    return 64 + 4 * processes * (audit_every + SOAK_ACK_GC_INTERVAL)


class SoakRunner:
    """Run open-ended seeded chaos streams on one backend."""

    def __init__(self, backend: str = "sim") -> None:
        self.time_scale = backend_class(backend).time_scale
        self.backend = backend

    def soak(
        self,
        seed: int,
        *,
        duration: float = 3600.0,
        servers: int = 3,
        processes: Optional[Tuple[ProcessId, ...]] = None,
        intensity: float = 1.0,
        audit_every: int = 50,
        resident_limit: Optional[int] = None,
        max_ops: Optional[int] = None,
    ) -> SoakReport:
        """Run one soak; never raises on a finding, reports it.

        ``duration`` is simulated seconds on the ``sim`` backend, wall
        seconds on the runtimes.  ``servers`` >= 2 deploys the crashable
        membership tier and folds server faults into the op stream.
        ``resident_limit`` None means: enforce the default bound on the
        simulator (where ack-GC is wired in), observe-only elsewhere.
        """
        if duration <= 0:
            raise ValueError("soak duration must be positive")
        if audit_every < 1:
            raise ValueError("audit_every must be >= 1")
        procs = tuple(processes) if processes else ("a", "b", "c", "d")
        if resident_limit is None and self.backend == "sim":
            resident_limit = default_resident_limit(len(procs), audit_every)
        # Derive the fault model exactly as an episode would, so a soak
        # seed and an episode seed describe the same adversary.
        faults = ChaosPlan.generate(
            seed, processes=procs, length=0, intensity=intensity, servers=servers
        ).faults
        report = SoakReport(
            backend=self.backend,
            seed=seed,
            servers=servers,
            duration=duration,
            resident_limit=resident_limit,
        )
        injector = FaultInjector(faults, time_scale=self.time_scale)
        try:
            asyncio.run(
                self._soak(
                    report,
                    injector,
                    procs,
                    rng=random.Random(seed),
                    audit_every=audit_every,
                    max_ops=max_ops,
                )
            )
        except SettleTimeoutError as exc:
            report.verdict = stall_verdict(exc)
        report.counters = injector.snapshot()
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    async def _soak(
        self,
        report: SoakReport,
        injector: FaultInjector,
        procs: Tuple[ProcessId, ...],
        *,
        rng: random.Random,
        audit_every: int,
        max_ops: Optional[int],
    ) -> None:
        # The E15 ack-GC machinery: without it a simulated hour of
        # traffic would be measured against unbounded retention.
        options = {"ack_gc_interval": SOAK_ACK_GC_INTERVAL} if self.backend == "sim" else {}
        async with deploy_for(self.backend, injector, report.servers, **options) as deployment:
            await deployment.setup(list(procs))
            clock = deployment.now
            started = clock()
            state = _ScheduleState(procs, 0, report.servers)
            sent = 0
            since_audit = 0
            while True:
                report.elapsed = clock() - started
                if report.elapsed >= report.duration:
                    break
                if max_ops is not None and report.ops >= max_ops:
                    break
                op = ChaosPlan._random_op(rng, state, sent)
                if op.kind == "send":
                    sent += 1
                state.apply(op)
                await ChaosRunner._apply(deployment, op)
                report.ops += 1
                since_audit += 1
                if since_audit >= audit_every:
                    since_audit = 0
                    if not await self._audit(report, deployment, state, procs):
                        return
            # Close out: return to a stable full view, then the final audit.
            for op in state.closing_ops():
                state.apply(op)
                await ChaosRunner._apply(deployment, op)
                report.ops += 1
            report.elapsed = clock() - started
            await self._audit(report, deployment, state, procs)

    async def _audit(
        self,
        report: SoakReport,
        deployment: Any,
        state: _ScheduleState,
        procs: Tuple[ProcessId, ...],
    ) -> bool:
        """Settle, check the battery, measure residency.  False = stop."""
        await deployment.settle()
        report.audits += 1
        trace = deployment.trace
        report.events = len(trace)
        report.verdict = run_verdict(trace, list(procs))
        if not report.verdict.ok:
            return False
        clean = (
            not state.partitioned
            and not state.server_partitioned
            and not state.crashed
            and not state.crashed_servers
        )
        if clean:
            resident = sum(
                node.endpoint.buffered_messages() for node in deployment.nodes.values()
            )
            report.max_resident = max(report.max_resident, resident)
            if report.resident_limit is not None and resident > report.resident_limit:
                report.verdict = Verdict.runtime(
                    "RUN-RESIDENCY",
                    f"memory residency: {resident} buffered messages at "
                    f"op {report.ops} exceed the limit {report.resident_limit}",
                )
                return False
        return True


def soak_matrix(
    seeds: List[int],
    *,
    backends: Tuple[str, ...] = ("sim",),
    **soak_kwargs: Any,
) -> List[SoakReport]:
    """One soak per (backend, seed); collect every report."""
    reports: List[SoakReport] = []
    for backend in backends:
        runner = SoakRunner(backend)
        for seed in seeds:
            reports.append(runner.soak(seed, **soak_kwargs))
    return reports


__all__ = [
    "SOAK_ACK_GC_INTERVAL",
    "SoakReport",
    "SoakRunner",
    "default_resident_limit",
    "soak_matrix",
]
