"""Seeded chaos engine over the deployment layer.

The ROADMAP's "handle as many scenarios as you can imagine" made
executable: instead of hand-writing adversarial scenarios one by one,
:class:`ChaosPlan` *generates* them - a schedule of multicasts,
partitions, heals, crashes, recoveries and reconfigurations, interleaved
with substrate-level message faults (drop/duplicate/delay/reorder),
derived deterministically from one integer seed.  :class:`ChaosRunner`
executes a plan on any backend (sim / async / tcp), audits the recorded
trace with the full safety battery plus MBRSHP conformance, and
:func:`shrink_plan` minimises any failing schedule to one that replays
byte-for-byte from its seed.

Quickstart::

    from repro.chaos import ChaosPlan, ChaosRunner, shrink_plan

    episode = ChaosRunner("sim").run(ChaosPlan.generate(7))
    assert episode.ok, episode.summary()

Dependency note: the substrates import :mod:`repro.chaos.faults` for the
fault hooks, so nothing in this package may import :mod:`repro.deploy`,
:mod:`repro.net` or :mod:`repro.runtime` at module level (the runner
imports the deployment registry lazily, in its constructor).
"""

from repro.chaos.faults import (
    DuplicateCopy,
    FaultDecision,
    FaultInjector,
    FaultModel,
)
from repro.chaos.plan import OP_KINDS, ChaosOp, ChaosPlan, sanitise_ops
from repro.chaos.runner import (
    SOAK_ACK_GC_INTERVAL,
    ChaosRunner,
    Episode,
    SoakReport,
    default_resident_limit,
)
from repro.chaos.por import (
    canonical_ops,
    ops_commute,
    schedule_key,
    sends_membership_neutral,
)
from repro.chaos.shrink import ShrinkResult, shrink_plan

__all__ = [
    "OP_KINDS",
    "ChaosOp",
    "ChaosPlan",
    "ChaosRunner",
    "DuplicateCopy",
    "Episode",
    "FaultDecision",
    "FaultInjector",
    "FaultModel",
    "SOAK_ACK_GC_INTERVAL",
    "ShrinkResult",
    "SoakReport",
    "canonical_ops",
    "default_resident_limit",
    "ops_commute",
    "sanitise_ops",
    "schedule_key",
    "sends_membership_neutral",
    "shrink_plan",
]
