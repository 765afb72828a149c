"""E20: the server fault domain under chaos - crash, recover, soak.

The paper assumes the membership service away (Section 8: servers
"never crash and never forget").  This repo mechanises that assumption
instead: servers crash and rejoin via round adoption over the tier's
durable watermark floors.  E20 quantifies the claim that
the *client-observable* guarantees survive the mechanisation:

* a seeded sweep per substrate with ``server_crash`` / ``server_recover``
  / ``server_partition`` folded into the schedules, audited by the full
  battery including the server-tier conformance rules
  (``MBRSHP-SRV-FORK``, ``MBRSHP-SRV-MONO``), must report **zero
  findings** while demonstrably exercising the tier;
* a soak - an open-ended stream of the same op distribution for at
  least one simulated hour - must stay green at every periodic audit
  *and* hold peak endpoint memory under a duration-independent bound
  (the E15 acknowledgement-GC machinery doing its job under server
  churn).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.chaos import ChaosRunner, SoakReport
from repro.experiments.chaos_sweep import ChaosSweepResult, chaos_sweep


@dataclass
class ServerChaosResult:
    """One substrate's row of the E20 table."""

    sweep: ChaosSweepResult
    servers: int
    server_ops: Dict[str, int] = field(default_factory=dict)  # per op kind

    @property
    def ok(self) -> bool:
        # A sweep that never touched the tier proves nothing about it.
        return self.sweep.ok and sum(self.server_ops.values()) > 0


def measure_server_chaos(
    substrate: str,
    *,
    episodes: int = 25,
    seed_base: int = 0,
    servers: int = 3,
    intensity: float = 1.0,
) -> ServerChaosResult:
    """The E20 sweep: seeded episodes on a crashable membership tier."""
    sweep = chaos_sweep(
        substrate,
        episodes=episodes,
        seed_base=seed_base,
        intensity=intensity,
        servers=servers,
    )
    # Only ops of episodes the sweep executed count as evidence.
    return ServerChaosResult(sweep=sweep, servers=servers, server_ops=sweep.server_ops)


def measure_server_soak(
    substrate: str = "sim",
    *,
    seed: int = 42,
    duration: float = 3600.0,
    servers: int = 3,
    audit_every: int = 50,
) -> SoakReport:
    """The E20 soak: one simulated hour (default) of server churn.

    On the simulator the duration is virtual time, so the default hour
    costs seconds of wall clock; on the runtimes it is wall time and
    callers should shorten it.
    """
    return ChaosRunner(substrate).soak(
        seed, duration=duration, servers=servers, audit_every=audit_every
    )
