"""Shrink a failing chaos plan to a minimal replayable schedule.

When an episode violates a property, the raw plan is rarely the story:
most of its operations and fault classes are bystanders.  The shrinker
minimises along the three axes a :class:`~repro.chaos.plan.ChaosPlan`
has - **ops** (delta-debugging-style chunk removal, halving granularity),
**fault rates** (switching whole fault classes off), and **processes**
(dropping group members) - re-running the episode after each candidate
edit and keeping it only if *the same finding* persists: a candidate is
adopted only when it reproduces the original violation **code** at the
same or an earlier **witness index** (for stalls, which have no trace
witness, the code alone must match).  Shrinking therefore never trades
the reported bug for a different, perhaps shallower one, and the final
schedule still exhibits the original defect no later than the original
run did.

Candidate schedules go through
:func:`~repro.chaos.plan.sanitise_ops`, so every attempt is an
executable, properly closed schedule; the result keeps the original
seed and ships as a ``(seed, code, witness_index, minimal_schedule)``
finding (:meth:`ShrinkResult.finding`) whose JSON replays byte-for-byte
from what a CI log prints.

Every re-run costs a full episode, so the search is bounded by
``max_runs`` - shrinking is best-effort minimisation, not a proof of
minimality.  Partial-order reduction (:mod:`repro.chaos.por`) stretches
that budget: every candidate is canonicalised (adjacent independent ops
sorted into a fixed order) and deduplicated on its canonical form, so a
candidate equivalent to one already run is skipped without spending an
episode.  Skipping is sound by construction - only candidates whose
behaviour class was already explored are dropped, and adoption still
requires an actual re-run - so POR changes how *fast* the minimum is
found, never *which* finding ships.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Set

from repro.chaos.plan import ChaosPlan
from repro.chaos.por import schedule_key
from repro.chaos.runner import ChaosRunner, Episode
from repro.checking.verdict import Violation


@dataclass
class ShrinkResult:
    """A minimised failing plan plus the evidence trail."""

    plan: ChaosPlan  # the smallest schedule still failing
    violation: Violation  # the finding it produces (code preserved while shrinking)
    original: ChaosPlan  # what we started from
    runs: int  # episodes executed, confirmation included
    candidates: int = 0  # candidate schedules considered (run or skipped)
    deduped: int = 0  # candidates skipped as POR-equivalent to a prior run

    @property
    def code(self) -> str:
        return self.violation.code

    @property
    def witness_index(self) -> Optional[int]:
        return self.violation.witness_index

    def finding(self) -> Dict[str, Any]:
        """The replayable finding: seed, code, witness, minimal schedule."""
        return {
            "seed": self.plan.seed,
            "code": self.code,
            "witness_index": self.witness_index,
            "minimal_schedule": self.plan.to_dict(),
        }

    def finding_json(self) -> str:
        """Canonical JSON of :meth:`finding` (byte-stable, replayable)."""
        return json.dumps(self.finding(), sort_keys=True, separators=(",", ":"))

    def summary(self) -> str:
        return (
            f"shrunk seed={self.plan.seed}: "
            f"{len(self.original.ops)} -> {len(self.plan.ops)} ops, "
            f"{len(self.original.processes)} -> {len(self.plan.processes)} processes, "
            f"faults [{self.original.faults.describe()}] -> "
            f"[{self.plan.faults.describe()}] in {self.runs} runs "
            f"({self.candidates} candidates, {self.deduped} POR-deduped); "
            f"code={self.code} witness={self.witness_index}; "
            f"violation: {self.violation.describe()}"
        )


def shrink_plan(
    runner: ChaosRunner, plan: ChaosPlan, *, max_runs: int = 80, por: bool = True
) -> Optional[ShrinkResult]:
    """Minimise ``plan`` under ``runner``; ``None`` if it doesn't fail.

    ``por=True`` (the default) deduplicates candidates up to exchanges
    of independent ops; skipped candidates don't consume ``max_runs``.
    ``por=False`` runs every candidate - the differential baseline the
    test battery compares against.
    """
    state = _Shrinker(runner, max_runs, por=por)
    first = state.attempt(plan)
    if first is None or first.ok:
        return None
    state.adopt(plan, first)
    state.remember(plan)
    # The axes interact - removing a fault class orphans ops, dropping a
    # process re-sanitises the schedule - so iterate the passes until a
    # full round adopts nothing.  Re-sweeps regenerate candidates already
    # tried against the same best plan; with POR on those are deduped
    # instead of re-run, which is what pays for the extra thoroughness.
    while state.runs < max_runs:
        state.progressed = False
        state.shrink_ops()
        state.shrink_faults()
        state.shrink_processes()
        state.shrink_servers()
        if not state.progressed:
            break
    return ShrinkResult(
        plan=state.best,
        violation=state.finding,
        original=plan,
        runs=state.runs,
        candidates=state.candidates,
        deduped=state.deduped,
    )


class _Shrinker:
    def __init__(self, runner: ChaosRunner, max_runs: int, *, por: bool = True) -> None:
        self.runner = runner
        self.max_runs = max_runs
        self.por = por
        self.runs = 0
        self.candidates = 0
        self.deduped = 0
        self.progressed = False
        self.seen: Set[str] = set()
        self.best: ChaosPlan = None  # type: ignore[assignment]
        self.finding: Violation = None  # type: ignore[assignment]

    def attempt(self, candidate: ChaosPlan) -> Optional[Episode]:
        if self.runs >= self.max_runs:
            return None
        self.runs += 1
        return self.runner.run(candidate)

    def adopt(self, plan: ChaosPlan, episode: Episode) -> None:
        self.best = plan
        self.finding = episode.verdict.primary
        self.progressed = True

    def remember(self, plan: ChaosPlan) -> None:
        """Record a plan's canonical schedule so its twins are skipped."""
        if self.por:
            self.seen.add(schedule_key(plan))

    def try_candidate(self, candidate: ChaosPlan) -> bool:
        """Run ``candidate``; adopt it only if the *same finding* persists.

        Same finding == same violation code, witnessed no later than the
        best run so far.  A candidate that fails differently (another
        code, or the same code only deeper into the trace) is rejected -
        shrinking minimises the original bug, it does not go bug-hunting.

        With POR on, a candidate whose canonical schedule already ran is
        skipped for free - it cannot be adopted (same behaviour class,
        already rejected or already the best) and costs no episode.
        """
        self.candidates += 1
        if self.por:
            key = schedule_key(candidate)
            if key in self.seen:
                self.deduped += 1
                return False
            self.seen.add(key)
        episode = self.attempt(candidate)
        if episode is None or episode.ok:
            return False
        if episode.code != self.finding.code:
            return False
        witness = self.finding.witness_index
        if witness is not None and (
            episode.witness_index is None or episode.witness_index > witness
        ):
            return False
        self.adopt(candidate, episode)
        return True

    # -- axes ------------------------------------------------------------

    def shrink_ops(self) -> None:
        """Remove op chunks, halving the chunk size as removals dry up."""
        chunk = max(len(self.best.ops) // 2, 1)
        while chunk >= 1 and self.runs < self.max_runs:
            removed_any = False
            index = 0
            while index < len(self.best.ops) and self.runs < self.max_runs:
                remaining = self.best.ops[:index] + self.best.ops[index + chunk :]
                candidate = self.best.with_ops(remaining)
                # sanitise_ops may re-append closing ops; require genuine
                # progress or the loop would spin on its own repairs.
                if len(candidate.ops) < len(self.best.ops) and self.try_candidate(
                    candidate
                ):
                    removed_any = True  # ops shifted; retry same index
                else:
                    index += chunk
            if not removed_any:
                chunk //= 2

    def shrink_faults(self) -> None:
        """Switch whole fault classes off while the failure persists."""
        for name in sorted(self.best.faults.active_rates()):
            if self.runs >= self.max_runs:
                return
            self.try_candidate(self.best.with_faults(self.best.faults.without(name)))

    def shrink_processes(self) -> None:
        """Drop group members one at a time down to the 2-process floor."""
        progress = True
        while progress and len(self.best.processes) > 2 and self.runs < self.max_runs:
            progress = False
            for pid in list(self.best.processes):
                if len(self.best.processes) <= 2 or self.runs >= self.max_runs:
                    break
                keep = [p for p in self.best.processes if p != pid]
                if self.try_candidate(self.best.with_processes(keep)):
                    progress = True
                    break

    def shrink_servers(self) -> None:
        """Drop the crashable membership tier once nothing exercises it.

        Only attempted when no server op survives in the best schedule:
        with server ops present the tier is load-bearing, and removing
        the ops first is the job of :meth:`shrink_ops`.  Changing the
        membership implementation is a real behavioural edit, so the
        candidate must still reproduce the finding to be adopted.
        """
        if not self.best.servers or self.runs >= self.max_runs:
            return
        if any(op.kind.startswith("server_") for op in self.best.ops):
            return
        self.try_candidate(replace(self.best, servers=0))


__all__ = [
    "ShrinkResult",
    "shrink_plan",
]
