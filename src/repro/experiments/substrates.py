"""E21: the same workload measured across execution substrates.

The deployment layer's promise is that one scenario runs unchanged over
the simulator, the asyncio runtime and real TCP sockets.  This
experiment makes the comparison quantitative: a fixed multicast workload
is driven through :mod:`repro.deploy` on each substrate, the trace is
audited by the full property battery, and per-substrate event counts
confirm the *observable behaviour* is the same even though the transports
could hardly differ more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.checking.events import DeliverEvent, SendEvent, ViewEvent
from repro.deploy import SUBSTRATES, Deployment, run_scenario
from repro.experiments.registry import claim, experiment
from repro.experiments.tables import format_table


@dataclass
class SubstrateResult:
    substrate: str
    nodes: int
    rounds: int
    sends: int  # application multicasts issued
    deliveries: int  # application deliveries (sends x group size if correct)
    view_events: int  # views installed across all end-points
    checked: bool  # full safety + MBRSHP battery passed


def _workload(nodes: int, rounds: int):
    pids = [chr(ord("a") + i) for i in range(nodes)]

    async def scenario(deployment: Deployment) -> None:
        await deployment.setup(pids)
        for round_no in range(rounds):
            for pid in pids:
                await deployment.send(pid, (pid, round_no))
            await deployment.settle()

    return scenario


def measure_substrate(
    substrate: str, *, nodes: int = 3, rounds: int = 2, check: bool = True
) -> SubstrateResult:
    """Run the fixed workload on one substrate and tally its trace."""
    deployment = run_scenario(substrate, _workload(nodes, rounds))
    if check:
        deployment.check()
    trace = deployment.trace
    return SubstrateResult(
        substrate=substrate,
        nodes=nodes,
        rounds=rounds,
        sends=len(trace.of_type(SendEvent)),
        deliveries=len(trace.of_type(DeliverEvent)),
        view_events=len(trace.of_type(ViewEvent)),
        checked=check,
    )


def substrate_matrix(
    *, nodes: int = 3, rounds: int = 2, check: bool = True
) -> List[SubstrateResult]:
    """The E21 rows: one per substrate, identical workload."""
    return [
        measure_substrate(substrate, nodes=nodes, rounds=rounds, check=check)
        for substrate in SUBSTRATES
    ]


def matrix_agrees(results: List[SubstrateResult]) -> bool:
    """True when all substrates produced the same observable workload:
    (sends, deliveries) is the substrate-independent part of a result."""
    return len({(r.sends, r.deliveries) for r in results}) == 1


@experiment("E21", "Substrate equivalence", "none - the deployment layer's own claim")
def run_e21() -> List[str]:
    results = substrate_matrix(nodes=3, rounds=2)
    claim(matrix_agrees(results), "same sends and deliveries on every substrate", results)
    for r in results:
        claim(r.deliveries == r.sends * r.nodes, "every member delivers every multicast", r)
        claim(r.view_events == r.nodes, "one view per end-point", r)
    return [format_table(
        ["substrate", "nodes", "sends", "deliveries", "views", "battery passed"],
        [(r.substrate, r.nodes, r.sends, r.deliveries, r.view_events, r.checked)
         for r in results],
        title="E21 one workload on every substrate (3 nodes x 2 rounds of multicasts)",
    )]
