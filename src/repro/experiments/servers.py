"""E14: the membership-server tier (the client-server architecture).

The paper's architecture puts membership agreement on a small tier of
dedicated servers.  The experiment measures, for a fixed client
population, how bootstrap and reconfiguration latency and the server-tier
message load vary with the number of servers - the trade-off an operator
of the [27]-style service tunes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.checking.properties import check_all_safety
from repro.net import ConstantLatency, LatencyModel, SimWorld


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
    latency = latency or ConstantLatency(1.0)
    world = SimWorld(latency=latency, membership="tier", servers=servers)
    pids = [f"p{i:02d}" for i in range(clients)]
    nodes = world.add_nodes(pids)
    world.start()
    world.run(max_events=1_000_000)
    bootstrap_time = world.now()
    first_view = nodes[0].current_view
    converged_bootstrap = all(n.current_view == first_view for n in nodes)

    world.network.reset_counters()
    start = world.now()
    world.crash(pids[-1])
    world.run(max_events=1_000_000)
    reconfig_time = world.now() - start
    survivors = [world.nodes[p] for p in pids[:-1]]
    final = survivors[0].current_view
    converged = converged_bootstrap and all(n.current_view == final for n in survivors)
    if check:
        check_all_safety(world.trace, list(world.nodes))
    return ServerTierResult(
        clients=clients,
        servers=servers,
        bootstrap_time=bootstrap_time,
        reconfig_time=reconfig_time,
        proposal_messages=world.network.totals().get("ServerProposal", 0),
        converged=converged,
    )
