"""Model-testing harness: the paper's Figure 8 composition, executable.

``ModelHarness`` assembles the complete closed system - MBRSHP and
CO_RFIFO specification automata as the environment, a GCS end-point and a
blocking client per process - exactly the composition the paper reasons
about, hides the internal interface, runs it under an adversarial or fair
scheduler, and exposes the observable behaviour as a
:class:`~repro.checking.events.GcsTrace` for the property checkers.

This is the workhorse of the test suite and the hypothesis properties:
one object builds a system, injects membership behaviours, runs seeded
schedules, and checks every safety property, invariant and refinement.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Type

from repro.checking.codes import SAFETY_CODES
from repro.checking.events import (
    BlockEvent,
    BlockOkEvent,
    CrashEvent,
    DeliverEvent,
    GcsTrace,
    MbrshpStartChangeEvent,
    MbrshpViewEvent,
    RecoverEvent,
    SendEvent,
    ViewEvent,
)
from repro.checking.invariants import WorldView, check_invariants, invariant_hook
from repro.checking.verdict import run_verdict
from repro.core.forwarding import ForwardingStrategy
from repro.core.gcs_endpoint import GcsEndpoint
from repro.ioa import Action, Composition, FairScheduler, RandomScheduler, Trace
from repro.spec.client import ScriptedClient
from repro.spec.co_rfifo import CoRfifoSpec
from repro.spec.mbrshp import MbrshpSpec, MembershipDriver
from repro.types import ProcessId, View


def ioa_trace_to_gcs_trace(trace: Trace) -> GcsTrace:
    """Project an IOA composition trace onto the observable GCS events."""
    out = GcsTrace()
    for event in trace:
        action = event.action
        time = float(event.index)
        name = action.name
        if name == "send":
            p, payload = action.params
            out.append(SendEvent(time, p, payload))
        elif name == "deliver":
            p, sender, payload = action.params
            out.append(DeliverEvent(time, p, sender, payload))
        elif name == "view":
            p, view = action.params[0], action.params[1]
            T = frozenset(action.params[2]) if len(action.params) > 2 else frozenset()
            out.append(ViewEvent(time, p, view, T))
        elif name == "block":
            out.append(BlockEvent(time, action.params[0]))
        elif name == "block_ok":
            out.append(BlockOkEvent(time, action.params[0]))
        elif name == "mbrshp.view":
            p, view = action.params
            out.append(MbrshpViewEvent(time, p, view))
        elif name == "mbrshp.start_change":
            p, cid, members = action.params
            out.append(MbrshpStartChangeEvent(time, p, cid, frozenset(members)))
        elif name == "crash":
            out.append(CrashEvent(time, action.params[0]))
        elif name == "recover":
            out.append(RecoverEvent(time, action.params[0]))
    return out


def enabled_cache_validation_hook(system: Composition, owner, action: Action) -> None:
    """Step hook asserting the incremental enabled-set cache is exact.

    After every executed step, the cached enabled set must equal the
    reflective no-cache oracle - same (owner, action) pairs, same order.
    Wire it into a scheduler (``scheduler(..., validate_cache=True)``)
    for differential testing; it is far too slow for production runs.
    """
    cached = [(c.name, a) for c, a in system.enabled_actions()]
    naive = [(c.name, a) for c, a in system.naive_enabled_actions()]
    assert cached == naive, (
        f"enabled-set cache diverged after {action!r}:\n"
        f"  cached: {cached}\n  oracle: {naive}"
    )


class ModelHarness:
    """A closed model of the whole service for one set of processes."""

    def __init__(
        self,
        processes: Sequence[ProcessId],
        *,
        seed: int = 0,
        strict: bool = True,
        forwarding: Optional[ForwardingStrategy] = None,
        endpoint_cls: Type[GcsEndpoint] = GcsEndpoint,
        scripts: Optional[Dict[ProcessId, List[Any]]] = None,
    ) -> None:
        self.processes = list(processes)
        self.seed = seed
        self.mbrshp = MbrshpSpec(self.processes)
        self.net = CoRfifoSpec(self.processes, link_membership=True)
        self.endpoints: Dict[ProcessId, GcsEndpoint] = {}
        for p in self.processes:
            kwargs: Dict[str, Any] = {"strict": strict}
            if forwarding is not None:
                kwargs["forwarding"] = forwarding
            self.endpoints[p] = endpoint_cls(p, **kwargs)
        scripts = scripts or {}
        self.clients = {
            p: ScriptedClient(p, script=scripts.get(p, [])) for p in self.processes
        }
        self.system = Composition(
            [self.mbrshp, self.net]
            + list(self.endpoints.values())
            + list(self.clients.values())
        )
        self.driver = MembershipDriver(self.mbrshp, seed=seed)
        self.world = WorldView.from_composition(self.system)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def scheduler(
        self,
        kind: str = "random",
        seed: Optional[int] = None,
        *,
        validate_cache: bool = False,
    ):
        seed = self.seed if seed is None else seed
        if kind == "random":
            scheduler = RandomScheduler(self.system, seed=seed)
        elif kind == "fair":
            scheduler = FairScheduler(self.system, seed=seed)
        else:
            raise ValueError(f"unknown scheduler kind {kind!r}")
        if validate_cache:
            scheduler.add_hook(enabled_cache_validation_hook)
        return scheduler

    def inject_membership(self, actions: Iterable[Action]) -> None:
        """Execute membership output actions through the composition."""
        for action in actions:
            self.system.execute(self.mbrshp, action)

    def form_view(self, members: Iterable[ProcessId]) -> View:
        view, actions = self.driver.form_view(members)
        self.inject_membership(actions)
        return view

    def run_to_quiescence(
        self,
        kind: str = "fair",
        max_steps: int = 50_000,
        hooks: Iterable[Any] = (),
    ) -> int:
        scheduler = self.scheduler(kind)
        for hook in hooks:
            scheduler.add_hook(hook)
        return scheduler.run(max_steps=max_steps)

    # ------------------------------------------------------------------
    # observation and checking
    # ------------------------------------------------------------------

    def gcs_trace(self) -> GcsTrace:
        return ioa_trace_to_gcs_trace(self.system.trace)

    def check_safety(self) -> None:
        run_verdict(self.gcs_trace(), self.processes, include=SAFETY_CODES).raise_for()

    def check_mbrshp(self) -> None:
        """Replay the membership notices through a fresh Figure 2 spec.

        Trivially true for behaviours generated by the in-model
        ``MbrshpSpec`` itself, but a real check for traces imported from
        deployments (and a guard against projection bugs in
        :func:`ioa_trace_to_gcs_trace`).
        """
        run_verdict(self.gcs_trace(), self.processes, include=["MBRSHP-CONF"]).raise_for()

    def check_invariants(self) -> None:
        check_invariants(self.world)

    def invariant_hook(self):
        return invariant_hook(self.world)

    def views_delivered(self, p: ProcessId) -> List[View]:
        return [e.view for e in self.gcs_trace().views_at(p)]
