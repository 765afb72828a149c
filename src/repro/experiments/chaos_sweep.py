"""E16: seeded chaos sweeps - adversarial schedules as an experiment.

The hand-written scenarios of E21 exercise a handful of stories; the
chaos engine (:mod:`repro.chaos`) generates them from seeds.  This
experiment quantifies a sweep: N seeded episodes per substrate, each a
randomized schedule of multicasts, partitions, heals, crashes,
recoveries and reconfigurations under nonzero message-fault rates, each
audited with the full safety battery plus MBRSHP conformance.  The
headline number is simple - **zero violations** - backed by evidence
that the sweep was adversarial (operations and faults actually injected)
and not a calm-weather pass.

The companion *self-test* proves the pipeline can fail: a known-bad
trace mutation (a re-delivered view) must be caught by the checkers and
shrunk to a minimal schedule that replays from its seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos import ChaosPlan, ChaosRunner, ShrinkResult, shrink_plan
from repro.chaos.por import schedule_key
from repro.checking.forge import FORGERIES, as_mutator


@dataclass
class ChaosSweepResult:
    """One substrate's row of the E16 table."""

    substrate: str
    episodes: int
    violations: int  # safety/conformance/stall findings (0 == pass)
    ops: int  # schedule operations executed across the sweep
    injected: Dict[str, int]  # fault counters summed over the sweep
    failures: List[str]  # summaries of any violating episodes
    por_skipped: int = 0  # seeds skipped as POR-equivalent to a prior episode
    # Evidence comes from the episodes that ran, never from regenerated
    # plans: a POR-skipped seed contributes to neither field.
    op_kinds: Dict[str, int] = field(default_factory=dict)  # executed ops by kind
    failing_seeds: List[int] = field(default_factory=list)  # parallel to failures

    @property
    def ok(self) -> bool:
        return self.violations == 0

    @property
    def server_ops(self) -> Dict[str, int]:
        """Executed ``server_*`` ops by kind: E20's evidence the tier was hit."""
        return {k: n for k, n in sorted(self.op_kinds.items()) if k.startswith("server_")}


def chaos_sweep(
    substrate: str,
    *,
    episodes: int = 25,
    seed_base: int = 0,
    intensity: float = 1.0,
    overlay_leaders: int = 0,
    servers: int = 0,
    por: bool = True,
) -> ChaosSweepResult:
    """Run ``episodes`` seeded chaos episodes on one substrate.

    ``overlay_leaders`` > 0 runs every episode under the two-tier scale
    overlay, with ``leader_crash`` ops targeting its acting leaders.
    ``servers`` >= 2 runs every episode on a crashable membership tier
    of that size, folding ``server_crash``/``server_recover``/
    ``server_partition`` ops into the schedules (E20).

    ``por=True`` skips seeds whose generated plan is equivalent - up to
    exchanges of independent ops (:mod:`repro.chaos.por`) - to one this
    sweep already executed: re-running a behaviour class the sweep has
    audited proves nothing new.  ``episodes`` still counts the seeds
    *covered*; ``por_skipped`` of them cost no episode.
    """
    runner = ChaosRunner(substrate)
    injected: Dict[str, int] = {}
    failures: List[str] = []
    failing_seeds: List[int] = []
    op_kinds: Counter = Counter()
    seen: set = set()
    por_skipped = 0
    for seed in range(seed_base, seed_base + episodes):
        plan = ChaosPlan.generate(
            seed,
            intensity=intensity,
            overlay_leaders=overlay_leaders,
            servers=servers,
        )
        if por:
            key = schedule_key(plan)
            if key in seen:
                por_skipped += 1
                continue
            seen.add(key)
        episode = runner.run(plan)
        op_kinds.update(op.kind for op in episode.plan.ops)
        for key, count in episode.counters.items():
            injected[key] = injected.get(key, 0) + count
        if not episode.ok:
            failures.append(episode.summary())
            failing_seeds.append(seed)
    return ChaosSweepResult(
        substrate=substrate,
        episodes=episodes,
        violations=len(failures),
        ops=sum(op_kinds.values()),
        injected=injected,
        failures=failures,
        por_skipped=por_skipped,
        op_kinds=dict(op_kinds),
        failing_seeds=failing_seeds,
    )


def chaos_self_test(
    *,
    substrate: str = "sim",
    seed: int = 7,
    max_runs: int = 40,
) -> Optional[ShrinkResult]:
    """Prove the pipeline catches and shrinks a known-bad episode.

    Runs one episode with the registered ``VS-MONO`` forgery applied to
    its trace before checking; the checkers must reject it, and the
    shrinker must reduce the schedule.  Returns the :class:`ShrinkResult`
    (``None`` means the mutation was *not* caught - the checkers are
    broken, and the caller should fail loudly).
    """
    runner = ChaosRunner(substrate, mutate_trace=as_mutator(FORGERIES["VS-MONO"]))
    plan = ChaosPlan.generate(seed)
    return shrink_plan(runner, plan, max_runs=max_runs)
