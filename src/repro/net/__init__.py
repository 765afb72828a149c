"""Discrete-event network simulation substrate (paper Section 3.2).

Provides the deterministic clock, latency models, the partitionable
network that is the simulator's one CO_RFIFO service (per-process
reliable sets and crash state, a held queue per link), and the
:class:`SimWorld` assembly of the full client-server deployment.
"""

from repro.net.latency import ConstantLatency, LatencyModel, LognormalLatency, UniformLatency
from repro.net.network import SimNetwork
from repro.net.simclock import EventScheduler, ScheduledEvent
from repro.net.world import SimNode, SimWorld

__all__ = [
    "ConstantLatency",
    "EventScheduler",
    "LatencyModel",
    "LognormalLatency",
    "ScheduledEvent",
    "SimNetwork",
    "SimNode",
    "SimWorld",
    "UniformLatency",
]
