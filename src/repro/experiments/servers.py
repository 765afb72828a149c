"""E14: the membership-server tier (the client-server architecture).

The paper's architecture puts membership agreement on a small tier of
dedicated servers.  The experiment measures, for a fixed client
population, how bootstrap and reconfiguration latency and the server-tier
message load vary with the number of servers - the trade-off an operator
of the [27]-style service tunes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.registry import claim, experiment
from repro.experiments.scenario import crash_last_member
from repro.experiments.tables import format_table
from repro.net import ConstantLatency, LatencyModel


@dataclass
class ServerTierResult:
    clients: int
    servers: int
    bootstrap_time: float  # start() to all clients in the first view
    reconfig_time: float  # client crash to survivors' converged view
    proposal_messages: int  # server-server traffic during the reconfig
    converged: bool


def measure_server_tier(
    *,
    clients: int = 8,
    servers: int = 2,
    latency: Optional[LatencyModel] = None,
    check: bool = False,
) -> ServerTierResult:
    run = crash_last_member(
        [f"p{i:02d}" for i in range(clients)],
        warm_rounds=0,
        latency=latency or ConstantLatency(1.0),
        servers=servers,
    )
    bootstrapped = len(set(run.settled_views.values())) == 1
    if check:
        run.check()
    return ServerTierResult(
        clients=clients,
        servers=servers,
        bootstrap_time=run.settled_at,
        reconfig_time=run.world.now() - run.crashed_at,
        proposal_messages=run.messages().get("ServerProposal", 0),
        converged=bootstrapped and run.converged,
    )


@experiment("E14", "The membership-server tier", "Section 1, client-server architecture")
def run_e14() -> List[str]:
    """The dedicated-server design keeps client reconfiguration cheap:
    adding servers costs one proposal exchange, quadratic only in the
    small server count, while the common case stays one server round."""
    results = [measure_server_tier(clients=8, servers=servers) for servers in (1, 2, 4)]
    for r in results:
        claim(r.converged, "bootstrap and reconfiguration converge", r)
        claim(r.proposal_messages == r.servers * (r.servers - 1),
              "proposals are L(L-1), quadratic in the server tier only", r)
    multi = {r.reconfig_time for r in results if r.servers > 1}
    claim(len(multi) == 1, "reconfiguration latency flat beyond one server", multi)
    return [format_table(
        ["servers", "bootstrap time", "reconfig time", "server-server proposals"],
        [(r.servers, r.bootstrap_time, r.reconfig_time, r.proposal_messages) for r in results],
        title="E14 membership-server tier (8 clients, one crash reconfiguration)",
    )]
