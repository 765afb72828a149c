"""Execute chaos plans and soaks on any deployment backend and audit the traces.

``ChaosRunner`` is the bridge between a :class:`~repro.chaos.plan.ChaosPlan`
and the substrate-agnostic :class:`~repro.deploy.base.Deployment`
contract: it replays the plan's operations on a fresh deployment of the
chosen backend with the plan's fault model injected into the substrate's
transport, then holds the recorded :class:`GcsTrace` to the full safety
battery plus MBRSHP (Figure 2) conformance.  A settle timeout during the
episode is reported as a violation too - under a *masked* fault model
(drops become retransmission latency, duplicates are deduplicated) the
protocol has no excuse to stall, so a stall is as much a finding as a
broken property, and the raised
:class:`~repro.errors.SettleTimeoutError` carries the pending fault
schedule for diagnosis.  So is a frame the socket codec refused
(``RUN-FRAME``): the link core counts it, and it is reported ahead of
any stall it caused.

An episode is a dozen operations and one final audit; the failure modes
that need *time* (unbounded buffer growth, watermark drift after many
server crash/recovery cycles, counter wraparound) need a **soak**
(:meth:`ChaosRunner.soak`): the same seeded op stream drawn for a span
of time - virtual on the simulator, wall on the runtimes.  Every
``audit_every`` ops the deployment is settled, one
:class:`~repro.checking.verdict.VerdictMonitor` held for the whole soak
reads the events appended since the last audit, and at a clean point (no
partition or crash outstanding) the buffered messages of all endpoints
are measured - on the simulator, where the E15 acknowledgement-GC
machinery is wired in, against a duration-independent residency limit.
Quoting ``(backend, seed, servers, duration)`` is quoting the soak.

The ``mutate_trace`` hook applies a transformation to an episode's trace
before checking.  Its production use is the self-test: inject a
known-bad mutation (a registered forgery of :mod:`repro.checking.forge`)
and confirm the pipeline catches it and shrinks it - proof that a green
chaos sweep is green because the protocol is correct, not because the
checkers are asleep.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Awaitable, Callable, Dict, Mapping, Optional, Tuple

from repro.chaos.faults import FaultInjector
from repro.chaos.plan import ChaosOp, ChaosPlan
from repro.checking.events import GcsTrace
from repro.checking.verdict import Verdict, VerdictMonitor, run_verdict
from repro.errors import SettleTimeoutError
from repro.types import ProcessId

TraceMutator = Callable[[GcsTrace], GcsTrace]

#: Default acknowledgement-GC interval wired into simulator soaks (the
#: E15 machinery that makes the residency assertion meaningful).
SOAK_ACK_GC_INTERVAL = 16


def stall_verdict(exc: SettleTimeoutError) -> Verdict:
    """A settle timeout as a finding: one ``RUN-STALL`` violation."""
    return Verdict.runtime("RUN-STALL", f"settle timeout: {exc}")


def frame_verdict(frame_errors: Mapping[str, int]) -> Verdict:
    """Frames the socket codec refused, as a finding: one ``RUN-FRAME``."""
    counted = ", ".join(f"{reason}: {n}" for reason, n in sorted(frame_errors.items()))
    return Verdict.runtime("RUN-FRAME", f"frame errors: {counted}")


def default_resident_limit(processes: int, audit_every: int) -> int:
    """The enforced buffered-message bound for simulator soaks.

    Between two audits at most ``audit_every`` sends enter the system,
    each retained by up to ``processes`` receivers until acknowledgement
    GC reclaims it; the constant floor absorbs view-change bursts.  The
    point is not the exact constant but that the bound is *independent
    of soak length* - an hour and a week soak share the same limit.
    """
    return 64 + 4 * processes * (audit_every + SOAK_ACK_GC_INTERVAL)


@dataclass
class Episode:
    """The outcome of one chaos plan on one backend."""

    plan: ChaosPlan
    backend: str
    verdict: Verdict  # the trace audit, or one RUN-STALL / RUN-FRAME finding
    counters: Dict[str, int] = field(default_factory=dict)  # injected faults
    trace: Optional[GcsTrace] = None  # absent on a RUN-STALL / RUN-FRAME finding
    link_totals: Dict[str, int] = field(default_factory=dict)  # per-kind wire counters

    @property
    def ok(self) -> bool:
        return self.verdict.ok

    @property
    def code(self) -> Optional[str]:
        """The stable violation code of the primary finding, if any."""
        return self.verdict.code

    @property
    def witness_index(self) -> Optional[int]:
        """Earliest violating event index; None for ok or stalled runs."""
        return self.verdict.witness_index

    def summary(self) -> str:
        status = "ok" if self.ok else f"VIOLATION: {self.verdict.primary.describe()}"
        injected = {k: v for k, v in self.counters.items() if k != "messages"}
        return (
            f"[{self.backend}] seed={self.plan.seed} ops={len(self.plan.ops)} "
            f"events={self.verdict.events} faults={injected} -> {status}"
        )


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
    # The latest audit: a trace verdict, or one RUN-STALL / RUN-FRAME /
    # RUN-RESIDENCY finding - whichever stopped the soak.
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


class ChaosRunner:
    """Runs :class:`ChaosPlan` episodes and open-ended soaks on one
    backend and checks them."""

    def __init__(
        self,
        backend: str = "sim",
        *,
        mutate_trace: Optional[TraceMutator] = None,
    ) -> None:
        from repro.deploy import BACKENDS  # local import: no cycle

        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}")
        # The deployment class; its ``time_scale`` is one latency unit of
        # the fault model in that substrate's own time.
        self.deployment_class = BACKENDS[backend]
        self.backend = backend
        self.mutate_trace = mutate_trace

    # ------------------------------------------------------------------
    # episodes
    # ------------------------------------------------------------------

    def run(self, plan: ChaosPlan) -> Episode:
        """Execute ``plan`` once; never raises on a violation, reports it."""
        deployment, finding, counters = self._drive(plan, partial(self._execute, plan))
        if finding is not None:
            return Episode(plan, self.backend, finding, counters)
        trace = deployment.trace
        if self.mutate_trace is not None:
            trace = self.mutate_trace(trace)
        return Episode(
            plan,
            self.backend,
            run_verdict(trace, list(plan.processes)),
            counters,
            trace,
            deployment.link_totals(),
        )

    # ------------------------------------------------------------------
    # soaks
    # ------------------------------------------------------------------

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
        # The fault model is derived exactly as an episode's, so a soak
        # seed and an episode seed describe the same adversary.
        plan = ChaosPlan.generate(
            seed, processes=procs, length=0, intensity=intensity, servers=servers
        )
        report = SoakReport(
            backend=self.backend,
            seed=seed,
            servers=servers,
            duration=duration,
            resident_limit=resident_limit,
        )
        # The E15 ack-GC machinery: without it a simulated hour of
        # traffic would be measured against unbounded retention.
        options = {"ack_gc_interval": SOAK_ACK_GC_INTERVAL} if self.backend == "sim" else {}
        body = partial(self._soak, report, plan, audit_every, max_ops)
        _deployment, finding, report.counters = self._drive(plan, body, **options)
        if finding is not None:
            report.verdict = finding
        return report

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _drive(
        self,
        plan: ChaosPlan,
        body: Callable[[Any, FaultInjector], Awaitable[None]],
        **options: Any,
    ) -> Tuple[Any, Optional[Verdict], Dict[str, int]]:
        """Run ``body`` on a fresh deployment of ``plan``'s processes under
        its fault model: ``(deployment, finding, injected-fault counters)``.

        A settle timeout anywhere ends the run as one ``RUN-STALL``
        verdict, and a frame the socket codec refused (counted on the
        link core) as one ``RUN-FRAME`` - ahead of any stall it caused;
        with a finding the deployment is None.
        """
        injector = FaultInjector(plan.faults, time_scale=self.deployment_class.time_scale)
        if plan.servers:
            # The server fault domain: every substrate then deploys a
            # crashable membership tier of that size.
            options["servers"] = plan.servers

        async def drive() -> Tuple[Any, Optional[Verdict]]:
            stall = None
            async with self.deployment_class(faults=injector, **options) as deployment:
                try:
                    await deployment.setup(list(plan.processes))
                    await body(deployment, injector)
                except SettleTimeoutError as exc:
                    stall = stall_verdict(exc)
            if deployment.links.frame_errors:
                return None, frame_verdict(deployment.links.frame_errors)
            return (None, stall) if stall is not None else (deployment, None)

        deployment, finding = asyncio.run(drive())
        return deployment, finding, injector.snapshot()

    async def _execute(self, plan: ChaosPlan, deployment: Any, injector: FaultInjector) -> None:
        if plan.overlay_leaders:
            from repro.scale import install_overlay

            install_overlay(deployment, leaders=plan.overlay_leaders)
        for index, op in enumerate(plan.ops):
            try:
                await self._apply(deployment, op)
            except SettleTimeoutError as exc:
                raise SettleTimeoutError(
                    f"chaos op {index} ({op.describe()}) stalled: {exc}",
                    schedule=self._pending_schedule(plan, index, injector),
                ) from exc

    async def _soak(
        self,
        report: SoakReport,
        plan: ChaosPlan,
        audit_every: int,
        max_ops: Optional[int],
        deployment: Any,
        _injector: FaultInjector,
    ) -> None:
        clock = deployment.now
        started = clock()
        state = plan.schedule_state()
        ops = state.random_ops(random.Random(plan.seed))
        monitor = VerdictMonitor(deployment.trace, plan.processes)
        while True:
            # Stop before drawing: a drawn op has already moved the
            # schedule state, and with it the closing suffix.
            report.elapsed = clock() - started
            if report.elapsed >= report.duration:
                break
            if max_ops is not None and report.ops >= max_ops:
                break
            await self._apply(deployment, next(ops))
            report.ops += 1
            if report.ops % audit_every == 0:
                if not await self._audit(report, deployment, state, monitor):
                    return
        # Close out: return to a stable full view, then the final audit.
        for op in state.closing_ops():
            state.apply(op)
            await self._apply(deployment, op)
            report.ops += 1
        report.elapsed = clock() - started
        await self._audit(report, deployment, state, monitor)

    @staticmethod
    async def _audit(
        report: SoakReport, deployment: Any, state: Any, monitor: VerdictMonitor
    ) -> bool:
        """Settle, advance the verdict, measure residency.  False = stop."""
        await deployment.settle()
        report.audits += 1
        report.verdict = monitor.advance(deployment.trace).verdict()
        report.events = report.verdict.events
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

    @staticmethod
    async def _apply(deployment: Any, op: ChaosOp) -> None:
        if op.kind == "send":
            await deployment.send(op.pid, op.payload)
        elif op.kind == "settle":
            await deployment.settle()
        elif op.kind == "partition":
            await deployment.partition([list(g) for g in op.groups])
        elif op.kind == "heal":
            await deployment.heal()
        elif op.kind in ("crash", "leader_crash"):
            # leader_crash is a crash whose pid was an acting overlay
            # leader at generation time; the overlay re-elects.
            await deployment.crash(op.pid)
        elif op.kind == "recover":
            await deployment.recover(op.pid)
        elif op.kind == "reconfigure":
            await deployment.reconfigure(list(op.members))
        elif op.kind in ("server_crash", "server_recover", "server_partition"):
            # Plans address membership servers by tier index; resolve to
            # this substrate's server ids at execution time.
            sids = deployment.server_ids()
            if op.kind == "server_crash":
                await deployment.server_crash(sids[op.server])
            elif op.kind == "server_recover":
                await deployment.server_recover(sids[op.server])
            else:
                await deployment.server_partition(
                    [[sids[i] for i in group] for group in op.server_groups]
                )
        else:
            raise ValueError(f"unknown chaos op kind {op.kind!r}")

    @staticmethod
    def _pending_schedule(plan: ChaosPlan, index: int, injector: FaultInjector) -> str:
        pending = [op.describe() for op in plan.ops[index:]]
        return (
            f"seed={plan.seed} faults=[{plan.faults.describe()}] "
            f"injected={injector.snapshot()} "
            f"pending_ops={pending}"
        )


__all__ = [
    "ChaosRunner",
    "Episode",
    "SOAK_ACK_GC_INTERVAL",
    "SoakReport",
    "default_resident_limit",
    "frame_verdict",
    "stall_verdict",
]
