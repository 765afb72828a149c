"""Substrate-agnostic link-layer core (CO_RFIFO's wire contract, once).

:class:`LinkCore` owns partition/reachability, fault application,
receiver-side deduplication, the per-link FIFO clamp, and uniform
:class:`LinkStats` counters; the simulator, asyncio hub, and TCP
transport are thin drivers over it.  :class:`Carrier` is the one rule by
which those drivers coalesce same-link traffic, and :class:`MessageBatch`
the framing a carrier of several copies travels in (see
:mod:`repro.links.batch`).  See ``docs/ARCHITECTURE.md`` ("Link layer"
and "Steady-state fast path") for the contract and how to add a fourth
substrate.
"""

from repro.links.batch import BATCH_LIMIT, Carrier, MessageBatch
from repro.links.core import (
    Link,
    LinkCore,
    LinkStats,
    Run,
    Transmission,
    WireCopy,
    kind_of,
)

__all__ = [
    "BATCH_LIMIT",
    "Carrier",
    "Link",
    "LinkCore",
    "LinkStats",
    "MessageBatch",
    "Run",
    "Transmission",
    "WireCopy",
    "kind_of",
]
