"""E2 - message cost of reconfiguration.

Paper claim: one all-to-all exchange of synchronization messages
(n*(n-1) for n survivors) and *no* identifier-agreement traffic; the
two-round baseline additionally pays the coordinator's n-1
identifier-proposal messages.
"""

from repro.experiments import ALGORITHMS, format_table, measure_reconfiguration

GROUP_SIZES = (4, 8, 16)


def test_e2_sync_and_agreement_messages(benchmark, report):
    def run():
        rows = []
        for n in GROUP_SIZES:
            survivors = n - 1
            for name, endpoint_cls in ALGORITHMS.items():
                result = measure_reconfiguration(
                    endpoint_cls, group_size=n, algorithm_name=name
                )
                rows.append((result, survivors))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table_rows = []
    for result, survivors in rows:
        expected_sync = survivors * (survivors - 1)
        expected_agree = (survivors - 1) if "two-round" in result.algorithm else 0
        assert result.sync_messages == expected_sync, result
        assert result.agreement_messages == expected_agree, result
        table_rows.append(
            (
                result.algorithm,
                result.group_size,
                result.sync_messages,
                expected_sync,
                result.agreement_messages,
                expected_agree,
            )
        )
    report.add(
        format_table(
            ["algorithm", "n", "sync msgs", "claimed", "agree msgs", "claimed"],
            table_rows,
            title="E2 reconfiguration message counts (survivors = n-1)",
        )
    )
