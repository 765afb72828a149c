"""Substrate-level fault models for chaos testing.

The paper's algorithm sits on top of CO_RFIFO (Figure 3): a reliable,
gap-free FIFO channel service.  Real deployments realise CO_RFIFO over a
lossy wire with sequence numbers, retransmission and receiver-side
deduplication - so from the algorithm's point of view a *lost* datagram
is extra latency (the retransmission delay), a *duplicated* datagram is
discarded by the receiving transport, and *reordering* shows up as
cross-link permutation of arrivals (per-link FIFO is part of the
contract).  :class:`FaultModel` and :class:`FaultInjector` encode exactly
that masked-fault semantics, so they can be wired into the
:class:`~repro.links.LinkCore` of any substrate (the
:class:`~repro.net.network.SimNetwork`,
:class:`~repro.runtime.transport.AsyncHub` and
:class:`~repro.runtime.tcp.TcpFabric` drivers) without voiding the
CO_RFIFO assumptions the safety proofs rest on.  The injector's counters record
how much of each fault class was actually exercised, so a chaos episode
can prove its run was adversarial and not a calm-weather pass.

Everything is deterministic: one integer seed fixes the whole fault
schedule, which is what makes chaos episodes replayable and shrinkable.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Dict

from repro.types import ProcessId


class DuplicateCopy:
    """Wire marker for the second copy of a duplicated transmission.

    The copy genuinely occupies the channel (it is scheduled, queued or
    framed like any message), but the receiving transport recognises and
    discards it - the behaviour of sequence-number deduplication, under
    which the second copy of a FIFO channel's message is always the one
    dropped.  Never hand a ``DuplicateCopy`` to an end-point: CO_RFIFO
    promises no duplication, and the delivery indices of
    :class:`~repro.core.wv_endpoint.WvEndpoint` rely on it.
    """

    __slots__ = ("message",)

    def __init__(self, message: Any) -> None:
        self.message = message

    def __reduce__(self):  # picklable like every wire type; sockets use repro.wire
        return (DuplicateCopy, (self.message,))

    def __repr__(self) -> str:
        return f"DuplicateCopy({self.message!r})"


@dataclass(frozen=True)
class FaultModel:
    """Per-message fault probabilities plus their timing parameters.

    Rates are probabilities in [0, 1]; ``penalty`` (the modelled
    retransmission delay of a dropped message) and ``jitter`` (the bound
    of delay/reorder perturbations) are expressed in *substrate latency
    units* and multiplied by the injector's ``time_scale`` - 1.0 on the
    simulator's virtual clock, a few milliseconds of real time on the
    asyncio and TCP runtimes.
    """

    drop: float = 0.0  # P(datagram lost; arrives after a retransmission penalty)
    duplicate: float = 0.0  # P(wire carries a second copy; receiver dedups)
    delay: float = 0.0  # P(extra latency up to ``jitter``)
    reorder: float = 0.0  # P(cross-link reordering jitter)
    penalty: float = 4.0  # retransmission penalty, latency units
    jitter: float = 2.0  # max extra delay, latency units
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay", "reorder"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate {rate} outside [0, 1]")
        if self.penalty < 0 or self.jitter < 0:
            raise ValueError("penalty and jitter must be non-negative")

    def without(self, name: str) -> "FaultModel":
        """A copy with one fault class switched off (used by shrinking)."""
        return replace(self, **{name: 0.0})

    def active_rates(self) -> Dict[str, float]:
        return {
            name: getattr(self, name)
            for name in ("drop", "duplicate", "delay", "reorder")
            if getattr(self, name) > 0.0
        }

    def describe(self) -> str:
        rates = self.active_rates()
        if not rates:
            return "no faults"
        return " ".join(f"{name}={rate:g}" for name, rate in sorted(rates.items()))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "drop": self.drop,
            "duplicate": self.duplicate,
            "delay": self.delay,
            "reorder": self.reorder,
            "penalty": self.penalty,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultModel":
        return cls(**data)


@dataclass(frozen=True)
class FaultDecision:
    """What the injector decided for one (src, dst) transmission."""

    extra_delay: float = 0.0
    duplicate: bool = False
    dropped: bool = False


_NO_FAULT = FaultDecision()


class FaultInjector:
    """Draws a deterministic per-message fault schedule from one seed.

    One injector is shared by every sender of a deployment; decisions are
    drawn in transmission order, so on the deterministic simulator the
    same seed reproduces the same fault schedule event for event.
    """

    def __init__(self, model: FaultModel, *, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.model = model
        self.time_scale = time_scale
        self.rng = random.Random(model.seed)
        self.counters: Counter = Counter()

    def decide(self, src: ProcessId, dst: ProcessId) -> FaultDecision:
        """The fault fate of the next message from ``src`` to ``dst``."""
        del src, dst  # rates are link-independent (kept for future models)
        model = self.model
        self.counters["messages"] += 1
        extra = 0.0
        dropped = False
        duplicate = False
        if model.drop and self.rng.random() < model.drop:
            dropped = True
            extra += model.penalty * self.time_scale * (0.5 + self.rng.random())
            self.counters["dropped"] += 1
        if model.duplicate and self.rng.random() < model.duplicate:
            duplicate = True
            self.counters["duplicated"] += 1
        if model.delay and self.rng.random() < model.delay:
            extra += self.rng.random() * model.jitter * self.time_scale
            self.counters["delayed"] += 1
        if model.reorder and self.rng.random() < model.reorder:
            extra += self.rng.random() * model.jitter * self.time_scale
            self.counters["reordered"] += 1
        if not (extra or duplicate):
            return _NO_FAULT
        return FaultDecision(extra_delay=extra, duplicate=duplicate, dropped=dropped)

    def suppressed_duplicate(self) -> None:
        """A receiving transport discarded a :class:`DuplicateCopy`."""
        self.counters["suppressed"] += 1

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counters)

    def __repr__(self) -> str:
        return f"<FaultInjector {self.model.describe()} {self.snapshot()}>"


__all__ = [
    "DuplicateCopy",
    "FaultDecision",
    "FaultInjector",
    "FaultModel",
]
