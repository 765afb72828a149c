"""E8 - crash and recovery without stable storage (Section 8).

Paper claim: a crashed end-point may recover with its variables in
initial state, under its original identity; Local Monotonicity survives
because the membership service keeps the per-client watermarks.  The
benchmark measures the reconfiguration and reintegration times and
asserts the recovery guarantees across group sizes.
"""

from repro.experiments import format_table, measure_crash_recovery

GROUP_SIZES = (3, 5, 9)


def test_e8_crash_recovery_sweep(benchmark, report):
    def run():
        return [measure_crash_recovery(group_size=n, check=True) for n in GROUP_SIZES]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for r in results:
        assert r.recovered_in_final_view
        assert r.post_recovery_delivery_ok
        assert r.monotone_view_ids
        rows.append(
            (r.group_size, r.reconfigure_after_crash, r.reintegration_time,
             r.recovered_in_final_view, r.monotone_view_ids)
        )
    report.add(
        format_table(
            ["n", "reconfig after crash", "reintegration", "rejoined final view",
             "monotone ids"],
            rows,
            title="E8 crash/recovery without stable storage",
        )
    )
