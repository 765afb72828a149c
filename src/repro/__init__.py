"""repro - a client-server virtually synchronous group multicast service.

A complete, executable reproduction of *Keidar & Khazan, "A Client-Server
Approach to Virtually Synchronous Group Multicast: Specifications,
Algorithms, and Proofs"* (ICDCS 2000):

* :mod:`repro.ioa` - the I/O automaton framework with the inheritance
  construct of [26];
* :mod:`repro.spec` - the specification automata (MBRSHP, CO_RFIFO,
  WV_RFIFO, VS_RFIFO, TRANS_SET, SELF, the blocking client);
* :mod:`repro.core` - the algorithm: WV_RFIFO -> VS_RFIFO+TS -> GCS
  end-points and the forwarding strategies;
* :mod:`repro.membership` - membership servers and a timing oracle;
* :mod:`repro.net` - a deterministic discrete-event simulation of the
  whole deployment;
* :mod:`repro.runtime` - the asyncio runtime for real deployments;
* :mod:`repro.deploy` - one deployment contract over three substrates
  (simulator, asyncio, TCP), so scenarios are written once;
* :mod:`repro.checking` - every specified property, invariant and
  refinement mapping as an executable check;
* :mod:`repro.baselines` - sequential and two-round virtual synchrony
  baselines for the evaluation.

Quickstart (asyncio)::

    import asyncio
    from repro import AsyncDeployment

    async def main():
        async with AsyncDeployment() as cluster:
            a, b = await cluster.add_nodes(["a", "b"])
            await cluster.start()
            await a.send("hello group")
            await cluster.settle()
            print(b.delivered)  # [('a', 'hello group')]

    asyncio.run(main())
"""

from repro.apps import NotPrimaryError, ReplicatedStateMachine
from repro.baselines import SequentialVsEndpoint, TwoRoundVsEndpoint
from repro.checking import SAFETY_CODES, GcsTrace, run_verdict
from repro.core import (
    GcsEndpoint,
    MinCopiesStrategy,
    NoForwarding,
    SimpleStrategy,
    VsRfifoTsEndpoint,
    WvRfifoEndpoint,
    strategy_by_name,
)
from repro.deploy import (
    SUBSTRATES,
    AsyncDeployment,
    Deployment,
    make_deployment,
    run_scenario,
)
from repro.errors import (
    InvariantViolation,
    RefinementViolation,
    ReproError,
    SpecificationViolation,
)
from repro.harness import ModelHarness
from repro.net import (
    ConstantLatency,
    LognormalLatency,
    SimWorld,
    UniformLatency,
)
from repro.order import CausalOrderNode, TotalOrderNode
from repro.runtime import GcsNode
from repro.types import (
    CID_ZERO,
    VID_ZERO,
    Cut,
    ProcessId,
    StartChange,
    StartChangeId,
    View,
    ViewId,
    initial_view,
    make_view,
)

__version__ = "1.0.0"

__all__ = [
    "AsyncDeployment",
    "CID_ZERO",
    "CausalOrderNode",
    "ConstantLatency",
    "Cut",
    "Deployment",
    "GcsEndpoint",
    "GcsNode",
    "GcsTrace",
    "InvariantViolation",
    "LognormalLatency",
    "MinCopiesStrategy",
    "ModelHarness",
    "NoForwarding",
    "NotPrimaryError",
    "ProcessId",
    "RefinementViolation",
    "ReplicatedStateMachine",
    "ReproError",
    "SAFETY_CODES",
    "SUBSTRATES",
    "SequentialVsEndpoint",
    "SimWorld",
    "SimpleStrategy",
    "SpecificationViolation",
    "StartChange",
    "StartChangeId",
    "TotalOrderNode",
    "TwoRoundVsEndpoint",
    "UniformLatency",
    "VID_ZERO",
    "View",
    "ViewId",
    "VsRfifoTsEndpoint",
    "WvRfifoEndpoint",
    "initial_view",
    "make_deployment",
    "make_view",
    "run_scenario",
    "run_verdict",
    "strategy_by_name",
]
