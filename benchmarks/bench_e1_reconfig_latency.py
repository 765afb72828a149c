"""E1 - reconfiguration latency: one round, in parallel.

Paper claim (Sections 1, 5, 9): the virtual synchrony round runs in
parallel with the membership round, so the GCS view lands together with
the membership view (0 extra rounds); sequential prior art pays +1 round
and identifier-pre-agreement designs (e.g. [7, 22]) pay +2.
"""

import pytest

from repro.experiments import ALGORITHMS, format_table, measure_reconfiguration
from repro.net import LognormalLatency

GROUP_SIZES = (4, 8, 16, 32)
EXPECTED_EXTRA_ROUNDS = {
    "gcs-1round (paper)": 0.0,
    "sequential-vs": 1.0,
    "two-round-vs": 2.0,
}


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_e1_constant_latency(benchmark, report, name):
    endpoint_cls = ALGORITHMS[name]

    def run():
        return [
            measure_reconfiguration(endpoint_cls, group_size=n, algorithm_name=name)
            for n in GROUP_SIZES
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (
            r.algorithm,
            r.group_size,
            r.membership_latency,
            r.gcs_latency,
            r.extra_rounds,
            EXPECTED_EXTRA_ROUNDS[name],
        )
        for r in results
    ]
    for r in results:
        assert r.extra_rounds == pytest.approx(EXPECTED_EXTRA_ROUNDS[name], abs=0.01)
    report.add(
        format_table(
            ["algorithm", "n", "mbrshp_t", "gcs_t", "extra_rounds", "claimed"],
            rows,
            title=f"E1 reconfiguration latency, constant latency ({name})",
        )
    )


def test_e1_wan_latency_preserves_ordering(benchmark, report):
    """Under heavy-tailed WAN latency the *ordering* must hold: the paper's
    algorithm finishes no later than sequential, which finishes no later
    than two-round."""

    def run():
        out = {}
        for name, endpoint_cls in ALGORITHMS.items():
            out[name] = measure_reconfiguration(
                endpoint_cls,
                group_size=12,
                latency=LognormalLatency(1.0, 0.5, seed=11),
                algorithm_name=name,
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    ours = results["gcs-1round (paper)"].gcs_latency
    seq = results["sequential-vs"].gcs_latency
    two = results["two-round-vs"].gcs_latency
    assert ours <= seq <= two
    report.add(
        format_table(
            ["algorithm", "gcs latency (lognormal wan)"],
            [(name, r.gcs_latency) for name, r in results.items()],
            title="E1b reconfiguration latency under WAN (lognormal) latency, n=12",
        )
    )
