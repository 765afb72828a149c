"""Execute chaos plans on any deployment backend and audit the traces.

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
schedule for diagnosis.

The ``mutate_trace`` hook applies a transformation to the trace before
checking.  Its production use is the self-test: inject a known-bad
mutation (a registered forgery of :mod:`repro.checking.forge`) and
confirm the pipeline catches it and shrinks it - proof that a green
chaos sweep is green because the protocol is correct, not because the
checkers are asleep.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Type

from repro.chaos.faults import FaultInjector
from repro.chaos.plan import ChaosOp, ChaosPlan
from repro.checking.events import GcsTrace
from repro.checking.verdict import Verdict, run_verdict
from repro.errors import SettleTimeoutError

TraceMutator = Callable[[GcsTrace], GcsTrace]


def stall_verdict(exc: SettleTimeoutError) -> Verdict:
    """A settle timeout as a finding: one ``RUN-STALL`` violation."""
    return Verdict.runtime("RUN-STALL", f"settle timeout: {exc}")


def backend_class(backend: str) -> Type[Any]:
    """The deployment class registered as ``backend``; its ``time_scale``
    is one latency unit of the fault model in that substrate's own time."""
    from repro.deploy import BACKENDS  # local import: no cycle

    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}")
    return BACKENDS[backend]


def deploy_for(backend: str, injector: FaultInjector, servers: int, **options: Any) -> Any:
    """A fresh deployment for a chaos run under ``injector``.

    ``servers`` > 0 targets the server fault domain: every substrate
    then deploys a crashable membership tier of that size.
    """
    if servers:
        options["servers"] = servers
    return backend_class(backend)(faults=injector, **options)


@dataclass
class Episode:
    """The outcome of one chaos plan on one backend."""

    plan: ChaosPlan
    backend: str
    verdict: Verdict  # the trace audit, or one RUN-STALL finding
    counters: Dict[str, int] = field(default_factory=dict)  # injected faults
    trace: Optional[GcsTrace] = None  # absent when the episode stalled
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


class ChaosRunner:
    """Runs :class:`ChaosPlan` episodes on one backend and checks them."""

    def __init__(
        self,
        backend: str = "sim",
        *,
        mutate_trace: Optional[TraceMutator] = None,
    ) -> None:
        self.time_scale = backend_class(backend).time_scale
        self.backend = backend
        self.mutate_trace = mutate_trace

    # ------------------------------------------------------------------
    # episodes
    # ------------------------------------------------------------------

    def run(self, plan: ChaosPlan) -> Episode:
        """Execute ``plan`` once; never raises on a violation, reports it."""
        injector = FaultInjector(plan.faults, time_scale=self.time_scale)
        try:
            deployment = asyncio.run(self._execute(plan, injector))
        except SettleTimeoutError as exc:
            return Episode(plan, self.backend, stall_verdict(exc), injector.snapshot())
        trace = deployment.trace
        if self.mutate_trace is not None:
            trace = self.mutate_trace(trace)
        return Episode(
            plan,
            self.backend,
            run_verdict(trace, list(plan.processes)),
            injector.snapshot(),
            trace,
            deployment.link_totals(),
        )

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------

    async def _execute(self, plan: ChaosPlan, injector: FaultInjector) -> Any:
        async with deploy_for(self.backend, injector, plan.servers) as deployment:
            await deployment.setup(list(plan.processes))
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
        return deployment

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
    "backend_class",
    "deploy_for",
    "stall_verdict",
]
