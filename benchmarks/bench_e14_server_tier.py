"""E14 - the membership-server tier.

Paper claim shape: the dedicated-server architecture keeps client-side
reconfiguration cheap; adding servers costs one proposal exchange
(quadratic only in the small server count, not in the client count),
while the common case remains a single server round.
"""

from repro.experiments.servers import measure_server_tier
from repro.experiments import format_table

SERVER_COUNTS = (1, 2, 4)


def test_e14_server_count_sweep(benchmark, report):
    def run():
        return [
            measure_server_tier(clients=8, servers=servers)
            for servers in SERVER_COUNTS
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for r in results:
        assert r.converged
        # proposals are quadratic in the server tier only: L * (L - 1)
        assert r.proposal_messages == r.servers * (r.servers - 1)
        rows.append(
            (r.servers, r.bootstrap_time, r.reconfig_time, r.proposal_messages)
        )
    # reconfiguration latency is flat once there is more than one server
    multi = [r.reconfig_time for r in results if r.servers > 1]
    assert len(set(multi)) == 1
    report.add(
        format_table(
            ["servers", "bootstrap time", "reconfig time", "server-server proposals"],
            rows,
            title="E14 membership-server tier (8 clients, one crash reconfiguration)",
        )
    )
