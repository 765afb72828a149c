"""E1-E3: reconfiguration latency, message cost, and parallelism.

The paper's headline claim (Sections 1, 5, 9): the virtual synchrony
round runs *in parallel* with the membership round, so the GCS view is
delivered as soon as the membership view is - no extra rounds and no
identifier pre-agreement messages.  The prior-art baselines pay one
(sequential) or two (pre-agreement) extra message exchanges.

``measure_reconfiguration`` runs one controlled view change - a settled
group loses a member - and reports, per algorithm:

* ``membership_latency`` - trigger to last membership-view delivery;
* ``gcs_latency`` - trigger to last GCS-view delivery;
* ``extra_rounds`` - the gap between the two, in units of the mean
  one-way network latency (the paper's "communication rounds");
* message counts by kind during the change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Type

from repro.baselines import SequentialVsEndpoint, TwoRoundVsEndpoint
from repro.core import GcsEndpoint
from repro.experiments.registry import claim, close, experiment
from repro.experiments.scenario import crash_last_member
from repro.experiments.tables import format_table
from repro.net import ConstantLatency, LatencyModel, LognormalLatency

ALGORITHMS: Dict[str, Type[GcsEndpoint]] = {
    "gcs-1round (paper)": GcsEndpoint,
    "sequential-vs": SequentialVsEndpoint,
    "two-round-vs": TwoRoundVsEndpoint,
}


@dataclass
class ReconfigResult:
    algorithm: str
    group_size: int
    membership_latency: float
    gcs_latency: float
    extra_latency: float
    extra_rounds: float
    messages: Dict[str, int] = field(default_factory=dict)

    @property
    def sync_messages(self) -> int:
        return self.messages.get("SyncMsg", 0)

    @property
    def agreement_messages(self) -> int:
        return self.messages.get("ProposeIdMsg", 0)


def measure_reconfiguration(
    endpoint_cls: Type[GcsEndpoint],
    *,
    group_size: int = 8,
    latency: Optional[LatencyModel] = None,
    round_duration: float = 3.0,
    warm_messages: int = 2,
    check: bool = False,
    algorithm_name: str = "",
) -> ReconfigResult:
    """One controlled view change (a member leaves a settled group)."""
    latency = latency or ConstantLatency(1.0)
    run = crash_last_member(
        [f"p{i:03d}" for i in range(group_size)],
        warm_rounds=warm_messages,
        latency=latency,
        round_duration=round_duration,
        endpoint_cls=endpoint_cls,
        gc_views=False,
    )
    membership_time, gcs_time = run.view_times()
    if check:
        run.check()
    extra = gcs_time - membership_time
    return ReconfigResult(
        algorithm=algorithm_name or endpoint_cls.__name__,
        group_size=group_size,
        membership_latency=membership_time - run.crashed_at,
        gcs_latency=gcs_time - run.crashed_at,
        extra_latency=extra,
        extra_rounds=extra / latency.mean() if latency.mean() else 0.0,
        messages=run.messages(),
    )


def reconfiguration_sweep(
    group_sizes: Iterable[int],
    *,
    latency: Optional[LatencyModel] = None,
    round_duration: float = 3.0,
) -> List[ReconfigResult]:
    """E1/E2 sweep: every algorithm at every group size."""
    results = []
    for n in group_sizes:
        for name, endpoint_cls in ALGORITHMS.items():
            results.append(
                measure_reconfiguration(
                    endpoint_cls,
                    group_size=n,
                    latency=latency,
                    round_duration=round_duration,
                    algorithm_name=name,
                )
            )
    return results


#: The claimed price of each design over the membership round (E1, E3).
CLAIMED_EXTRA_ROUNDS = {
    "gcs-1round (paper)": 0.0,
    "sequential-vs": 1.0,
    "two-round-vs": 2.0,
}


@experiment("E1", "Reconfiguration latency: one round, in parallel", "Sections 1, 5, 9")
def run_e1() -> List[str]:
    tables = []
    sweep = reconfiguration_sweep((4, 8, 16, 32))
    for name, claimed in CLAIMED_EXTRA_ROUNDS.items():
        results = [r for r in sweep if r.algorithm == name]
        for r in results:
            claim(close(r.extra_rounds, claimed, 0.01), "extra rounds over membership", r)
        tables.append(format_table(
            ["algorithm", "n", "mbrshp_t", "gcs_t", "extra_rounds", "claimed"],
            [(r.algorithm, r.group_size, r.membership_latency, r.gcs_latency,
              r.extra_rounds, claimed) for r in results],
            title=f"E1 reconfiguration latency, constant latency ({name})",
        ))
    # Under heavy-tailed WAN latency the *ordering* must still hold.
    wan = {
        name: measure_reconfiguration(
            endpoint_cls,
            group_size=12,
            latency=LognormalLatency(1.0, 0.5, seed=11),
            algorithm_name=name,
        )
        for name, endpoint_cls in ALGORITHMS.items()
    }
    ours, seq, two = (wan[name].gcs_latency for name in CLAIMED_EXTRA_ROUNDS)
    claim(ours <= seq <= two, "WAN ordering paper <= sequential <= two-round", (ours, seq, two))
    tables.append(format_table(
        ["algorithm", "gcs latency (lognormal wan)"],
        [(name, r.gcs_latency) for name, r in wan.items()],
        title="E1b reconfiguration latency under WAN (lognormal) latency, n=12",
    ))
    return tables


@experiment("E2", "Message cost of reconfiguration", "Sections 1, 5")
def run_e2() -> List[str]:
    """One all-to-all sync exchange, s(s-1) for s survivors, and no
    identifier-agreement traffic; the two-round baseline additionally
    pays its coordinator's s-1 identifier proposals."""
    rows = []
    for r in reconfiguration_sweep((4, 8, 16)):
        survivors = r.group_size - 1
        claimed_sync = survivors * (survivors - 1)
        claimed_agree = (survivors - 1) if "two-round" in r.algorithm else 0
        claim(r.sync_messages == claimed_sync, "sync messages = s(s-1)", r)
        claim(r.agreement_messages == claimed_agree, "identifier-agreement messages", r)
        rows.append((r.algorithm, r.group_size, r.sync_messages, claimed_sync,
                     r.agreement_messages, claimed_agree))
    return [format_table(
        ["algorithm", "n", "sync msgs", "claimed", "agree msgs", "claimed"],
        rows,
        title="E2 reconfiguration message counts (survivors = n-1)",
    )]


@experiment("E3", "Parallelism ablation", "Section 5")
def run_e3() -> List[str]:
    """Synchronization starts at the start_change, so the paper's extra
    latency is independent of the membership round's duration; the
    baselines' extra rounds are added to whatever the membership costs."""
    rows = []
    for duration in (1.0, 2.0, 4.0, 8.0):
        for r in reconfiguration_sweep([8], round_duration=duration):
            if "paper" in r.algorithm:
                claim(close(r.extra_latency, 0.0, 0.01), "sync round hidden in membership", r)
                claim(close(r.gcs_latency, r.membership_latency, 0.01),
                      "total tracks the membership duration 1:1", r)
            else:
                claim(r.extra_latency > 0.5, "baseline pays extra rounds", r)
            rows.append((r.algorithm, r.membership_latency, r.gcs_latency, r.extra_latency))
    return [format_table(
        ["algorithm", "membership round", "total to gcs view", "extra after mbrshp"],
        rows,
        title="E3 sync-round overlap vs membership round duration (n=8)",
    )]
