"""The evaluation harness (experiments E1-E22, see EXPERIMENTS.md).

The paper contains no measurement tables - its figures are specifications
and algorithms - so the reproduction turns each *quantitative claim* into
an experiment.  Each is stated exactly once: a ``measure_*`` function (a
pure function of its parameters, returning a structured ``*Result``) and,
beside it, a :mod:`~repro.experiments.registry` entry whose ``run()``
owns the grid, the claimed values and the claim-versus-measured table.
``python -m repro experiments [ID ...]`` prints the tables and fails on a
missed claim; E16 and E20 (seeded sweeps and soaks) are driven by the
``chaos`` and ``soak`` commands instead.
"""

from repro.experiments import reconfig_cost  # noqa: F401 - registers E22
from repro.experiments.reconfig import (
    ALGORITHMS,
    ReconfigResult,
    measure_reconfiguration,
    reconfiguration_sweep,
)
from repro.experiments.ack_gc import AckGcResult, measure_ack_gc
from repro.experiments.forwarding import ForwardingResult, measure_forwarding
from repro.experiments.multigroup import GroupIsolationResult, measure_group_isolation
from repro.experiments.obsolete import ObsoleteViewResult, measure_obsolete_views
from repro.experiments.throughput import ThroughputResult, measure_throughput
from repro.experiments.blocking import BlockingResult, measure_blocking_window
from repro.experiments.crash import CrashRecoveryResult, measure_crash_recovery
from repro.experiments.extensions import (
    CompactSyncResult,
    OrderingResult,
    TwoTierResult,
    measure_compact_syncs,
    measure_ordering_overhead,
    measure_two_tier,
)
from repro.experiments.chaos_sweep import (
    ChaosSweepResult,
    chaos_self_test,
    chaos_sweep,
)
from repro.experiments.scale import (
    ScaleEndpointResult,
    ScaleGroupsResult,
    measure_scale_endpoints,
    measure_scale_groups,
)
from repro.experiments.server_chaos import (
    ServerChaosResult,
    measure_server_chaos,
    measure_server_soak,
)
from repro.experiments.servers import ServerTierResult, measure_server_tier
from repro.experiments.substrates import (
    SubstrateResult,
    matrix_agrees,
    measure_substrate,
    substrate_matrix,
)
from repro.experiments.registry import REGISTRY, ClaimMissed, Experiment, experiment_ids
from repro.experiments.tables import format_table

__all__ = [
    "ALGORITHMS",
    "AckGcResult",
    "BlockingResult",
    "ChaosSweepResult",
    "ClaimMissed",
    "CompactSyncResult",
    "CrashRecoveryResult",
    "Experiment",
    "ForwardingResult",
    "GroupIsolationResult",
    "ObsoleteViewResult",
    "OrderingResult",
    "REGISTRY",
    "ReconfigResult",
    "ScaleEndpointResult",
    "ScaleGroupsResult",
    "ServerChaosResult",
    "ServerTierResult",
    "SubstrateResult",
    "ThroughputResult",
    "TwoTierResult",
    "chaos_self_test",
    "chaos_sweep",
    "experiment_ids",
    "format_table",
    "matrix_agrees",
    "measure_ack_gc",
    "measure_blocking_window",
    "measure_compact_syncs",
    "measure_crash_recovery",
    "measure_forwarding",
    "measure_group_isolation",
    "measure_obsolete_views",
    "measure_ordering_overhead",
    "measure_reconfiguration",
    "measure_scale_endpoints",
    "measure_scale_groups",
    "measure_server_chaos",
    "measure_server_soak",
    "measure_server_tier",
    "measure_substrate",
    "measure_throughput",
    "measure_two_tier",
    "reconfiguration_sweep",
    "substrate_matrix",
]
