"""E11 - compact synchronization messages (Section 5.2.4).

Paper: a smaller sync ("I am not in your transitional set") suffices for
processes outside the sender's current view.  Claim shape: on partition
merges - where the start_change set strictly exceeds every current view -
the sync volume drops substantially, with identical message counts and
identical outcomes.
"""

from repro.experiments import format_table, measure_compact_syncs

GROUP_SIZES = (6, 10, 16)


def test_e11_sync_volume_on_merges(benchmark, report):
    def run():
        rows = []
        for n in GROUP_SIZES:
            for compact in (False, True):
                rows.append(measure_compact_syncs(group_size=n, compact=compact))
        return rows

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    table_rows = []
    plain_volume = {}
    for r in results:
        assert r.converged
        if not r.compact:
            plain_volume[r.group_size] = r.sync_volume
        else:
            assert r.sync_volume < plain_volume[r.group_size]
        table_rows.append(
            (
                r.group_size,
                "compact" if r.compact else "full",
                r.sync_messages,
                r.sync_volume,
                f"{r.sync_volume / plain_volume[r.group_size]:.2f}x",
            )
        )
    report.add(
        format_table(
            ["n", "variant", "sync msgs", "sync volume", "vs full"],
            table_rows,
            title="E11 compact syncs on a half/half partition merge (Section 5.2.4)",
        )
    )
