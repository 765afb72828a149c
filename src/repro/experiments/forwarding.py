"""E4: message-recovery cost of the forwarding strategies (Section 5.2.2).

Setup: a settled group; the *departing* end-point multicasts a backlog of
messages over asymmetric links, so that exactly ``holders`` of the
survivors receive them before a partition removes the sender (the slow
copies bounce).  The survivors then reconfigure: the holders' cuts commit
to the backlog, the other survivors miss it, and the forwarding strategy
determines how many copies cross the network.

Paper's claim: with the *simple* strategy every committed holder forwards
to every missing peer (``holders`` copies per missing message), while
*min-copies* deterministically elects a single forwarder (one copy per
missing message).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

from repro.checking.codes import SAFETY_CODES
from repro.checking.verdict import run_verdict
from repro.core.forwarding import ForwardingStrategy, MinCopiesStrategy, SimpleStrategy
from repro.experiments.registry import claim, close, experiment
from repro.experiments.tables import format_table
from repro.net import SimWorld
from repro.net.latency import LatencyModel
from repro.types import ProcessId


class _AsymmetricLatency(LatencyModel):
    """Base latency everywhere, except slow links from ``sender`` to
    everyone outside ``fast_peers`` - the knob that creates holders."""

    def __init__(self, sender: ProcessId, fast_peers: FrozenSet[ProcessId],
                 base: float = 1.0, slow: float = 50.0) -> None:
        self.sender = sender
        self.fast_peers = frozenset(fast_peers)
        self.base = base
        self.slow = slow

    def sample(self, src: ProcessId, dst: ProcessId) -> float:
        if src == self.sender and dst not in self.fast_peers:
            return self.slow
        return self.base

    def mean(self) -> float:
        return self.base


@dataclass
class ForwardingResult:
    strategy: str
    group_size: int
    holders: int
    backlog: int
    missing_instances: int  # (message, needy-peer) pairs to repair
    forwarded_copies: int
    copies_per_missing: float
    converged: bool
    agreed: bool  # all survivors delivered the same backlog prefix


def measure_forwarding(
    strategy: ForwardingStrategy,
    *,
    group_size: int = 6,
    backlog: int = 4,
    holders: int = 2,
    check: bool = False,
) -> ForwardingResult:
    """Partition the sender away mid-stream; count forwarded copies."""
    if holders >= group_size - 1:
        raise ValueError("need at least one survivor without the backlog")
    pids = [f"p{i}" for i in range(group_size - 1)] + ["zz-sender"]
    sender = pids[-1]
    fast = frozenset(pids[:holders])
    latency = _AsymmetricLatency(sender, fast)
    world = SimWorld(
        latency=latency,
        round_duration=2.0,
        forwarding=strategy,
        gc_views=False,
    )
    nodes = world.add_nodes(pids)
    world.start()
    world.run()

    for i in range(backlog):
        nodes[-1].send(f"bulk-{i}")
    # let the fast copies land; the slow ones are still in flight
    world.run_until(world.now() + latency.base + 0.01)
    survivors = pids[:-1]
    world.partition([survivors, [sender]])
    world.links.reset_counters()
    world.run()

    final = next(v for v in reversed(world.oracle.views_formed)
                 if v.members == frozenset(survivors))
    converged = world.all_in_view(final)
    if check:
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
    copies = world.links.totals().get("FwdMsg", 0)
    prefixes = {
        p: tuple(m for s, m in world.nodes[p].delivered if s == sender)
        for p in survivors
    }
    agreed = len(set(prefixes.values())) == 1
    held = len(prefixes[survivors[0]])
    missing = held * (group_size - 1 - holders)
    return ForwardingResult(
        strategy=type(strategy).__name__,
        group_size=group_size,
        holders=holders,
        backlog=backlog,
        missing_instances=missing,
        forwarded_copies=copies,
        copies_per_missing=(copies / missing) if missing else 0.0,
        converged=converged,
        agreed=agreed,
    )


@experiment("E4", "Forwarding strategies", "Section 5.2.2")
def run_e4() -> List[str]:
    rows = []
    for group_size, backlog, holders in ((5, 3, 1), (6, 4, 2), (8, 4, 3)):
        for strategy in (SimpleStrategy(), MinCopiesStrategy()):
            r = measure_forwarding(
                strategy, group_size=group_size, backlog=backlog, holders=holders
            )
            claim(r.converged and r.agreed, "survivors converge and agree on the backlog", r)
            claimed = float(holders) if isinstance(strategy, SimpleStrategy) else 1.0
            claim(close(r.copies_per_missing, claimed), "copies per missing message", r)
            rows.append((r.strategy, r.group_size, r.holders, r.missing_instances,
                         r.forwarded_copies, r.copies_per_missing, claimed))
    return [format_table(
        ["strategy", "n", "holders", "missing", "copies", "copies/missing", "claimed"],
        rows,
        title="E4 forwarding cost: simple vs min-copies",
    )]
