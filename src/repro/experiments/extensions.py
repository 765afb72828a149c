"""E10-E12: the implemented extensions and optimizations.

* E10 - the two-tier hierarchy of Section 9 (sync aggregation through
  leaders): message count versus extra latency.
* E11 - the compact synchronization messages of Section 5.2.4: sync
  volume on partition merges.
* E12 - the ordering layers built on the FIFO service (Section 4.1.1's
  "FIFO is a basic service upon which one can build stronger services"):
  delivery latency of FIFO vs causal vs total order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.checking.codes import SAFETY_CODES
from repro.checking.verdict import run_verdict
from repro.experiments.registry import claim, close, experiment
from repro.experiments.scenario import crash_last_member
from repro.experiments.tables import format_table
from repro.net import ConstantLatency, SimWorld
from repro.order import CausalOrderNode, TotalOrderNode


@dataclass
class TwoTierResult:
    group_size: int
    leaders: int  # 0 = flat (no hierarchy)
    sync_messages: int  # sync-carrying messages during the change
    extra_latency: float  # GCS view time - membership view time
    converged: bool


def measure_two_tier(
    *,
    group_size: int = 16,
    leaders: int = 0,
    round_duration: float = 3.0,
    check: bool = False,
) -> TwoTierResult:
    """One member-crash reconfiguration, flat or with a leader hierarchy."""
    run = crash_last_member(
        [f"p{i:02d}" for i in range(group_size)],
        leaders=leaders,
        latency=ConstantLatency(1.0),
        round_duration=round_duration,
        gc_views=False,
    )
    membership_time, gcs_time = run.view_times()
    if check:
        run.check()
    return TwoTierResult(
        group_size=group_size,
        leaders=leaders,
        sync_messages=run.sync_messages(),
        extra_latency=gcs_time - membership_time,
        converged=run.converged,
    )


@experiment("E10", "Two-tier hierarchy (future work, implemented)", "Section 9")
def run_e10() -> List[str]:
    """Large sync-message savings at scale for a small bounded latency cost."""
    rows, flat_msgs = [], {}
    for group_size, leader_counts in ((16, (0, 2, 4)), (32, (0, 4, 8))):
        for leaders in leader_counts:
            r = measure_two_tier(group_size=group_size, leaders=leaders)
            claim(r.converged, "survivors converge on the formed view", r)
            if leaders == 0:
                flat_msgs[group_size] = r.sync_messages
                claim(close(r.extra_latency, 0.0), "flat sync hides in the membership round", r)
            else:
                claim(r.sync_messages < flat_msgs[group_size], "fewer sync messages than flat", r)
                claim(r.extra_latency <= 2.0, "at most the two extra hops", r)
            rows.append((r.group_size, r.leaders or "flat", r.sync_messages,
                         f"{r.sync_messages / flat_msgs[group_size]:.2f}x", r.extra_latency))
    return [format_table(
        ["n", "leaders", "sync msgs", "vs flat", "extra latency"],
        rows,
        title="E10 two-tier sync aggregation (Section 9, implemented)",
    )]


@dataclass
class CompactSyncResult:
    group_size: int
    compact: bool
    sync_messages: int
    sync_volume: int  # estimated units (cut entries + membership + header)
    converged: bool


def measure_compact_syncs(
    *,
    group_size: int = 6,
    compact: bool = False,
    check: bool = False,
) -> CompactSyncResult:
    """A partition merge - the case where start_change.set strictly
    exceeds current views and the Section 5.2.4 optimization bites."""
    world = SimWorld(
        latency=ConstantLatency(1.0),
        round_duration=2.0,
        compact_syncs=compact,
        gc_views=False,
    )
    pids = [f"p{i}" for i in range(group_size)]
    nodes = world.add_nodes(pids)
    world.start()
    world.run()
    half = group_size // 2
    world.partition([pids[:half], pids[half:]])
    world.run()
    for node in nodes:
        node.send("island-" + node.pid)
    world.run()
    world.links.reset_counters()
    world.heal()
    world.run()
    view = world.oracle.views_formed[-1]
    if check:
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
    return CompactSyncResult(
        group_size=group_size,
        compact=compact,
        sync_messages=world.links.stats.sent.get("SyncMsg", 0),
        sync_volume=world.links.stats.volume.get("SyncMsg", 0),
        converged=world.all_in_view(view),
    )


@experiment("E11", "Compact synchronization messages", "Section 5.2.4")
def run_e11() -> List[str]:
    """On merges the sync volume drops substantially, with identical
    message counts and identical outcomes."""
    rows, full = [], {}
    for n in (6, 10, 16):
        for compact in (False, True):
            r = measure_compact_syncs(group_size=n, compact=compact)
            claim(r.converged, "merge converges", r)
            if compact:
                claim(r.sync_volume < full[n], "compact syncs carry less volume", r)
            else:
                full[n] = r.sync_volume
            rows.append((n, "compact" if compact else "full", r.sync_messages,
                         r.sync_volume, f"{r.sync_volume / full[n]:.2f}x"))
    return [format_table(
        ["n", "variant", "sync msgs", "sync volume", "vs full"],
        rows,
        title="E11 compact syncs on a half/half partition merge (Section 5.2.4)",
    )]


@dataclass
class OrderingResult:
    layer: str
    group_size: int
    mean_delivery_latency: float
    agreed_order: bool


def measure_ordering_overhead(
    layer: str,
    *,
    group_size: int = 6,
    messages_per_sender: int = 5,
) -> OrderingResult:
    """Mean send-to-deliver latency under each ordering layer.

    Total order pays the sequencing hop (order messages from the least
    member) on top of the FIFO service's single hop; causal order costs
    nothing extra for concurrent traffic.
    """
    if layer not in ("fifo", "causal", "total"):
        raise ValueError(f"layer must be fifo/causal/total, got {layer!r}")
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=1.0)
    nodes = world.add_nodes([f"p{i}" for i in range(group_size)])

    send_time: Dict = {}
    latencies: List[float] = []

    def on_deliver(_sender, payload) -> None:
        sent = send_time.get(payload)
        if sent is not None:
            latencies.append(world.now() - sent)

    wrapped: List = []
    if layer == "total":
        wrapped = [TotalOrderNode(node, on_deliver=on_deliver) for node in nodes]
    elif layer == "causal":
        wrapped = [CausalOrderNode(node, on_deliver=on_deliver) for node in nodes]
    else:
        for node in nodes:
            node.set_app(on_deliver=on_deliver)
    world.start()
    world.run()

    for i in range(messages_per_sender):
        for index, node in enumerate(nodes):
            payload = (node.pid, i)
            send_time[payload] = world.now()
            if wrapped:
                wrapped[index].broadcast(payload)
            else:
                node.send(payload)
        world.run()  # settle each wave so timestamps stay meaningful

    expected = group_size * group_size * messages_per_sender
    assert len(latencies) == expected, (len(latencies), expected)
    agreed = True
    if layer == "total":
        agreed = len({tuple(w.delivered) for w in wrapped}) == 1
    return OrderingResult(
        layer=layer,
        group_size=group_size,
        mean_delivery_latency=sum(latencies) / len(latencies),
        agreed_order=agreed,
    )


@experiment("E12", "Ordering layers over FIFO", "Section 4.1.1")
def run_e12() -> List[str]:
    """Causal order is free for concurrent traffic; total order roughly
    doubles delivery latency and yields a single agreed sequence."""
    results = {
        layer: measure_ordering_overhead(layer, group_size=6, messages_per_sender=4)
        for layer in ("fifo", "causal", "total")
    }
    fifo, causal, total = (r.mean_delivery_latency for r in results.values())
    claim(close(causal, fifo, 0.05 * fifo), "causal is free for concurrent traffic", causal)
    claim(1.5 * fifo <= total <= 3.0 * fifo, "total order pays the sequencing hop", total)
    claim(results["total"].agreed_order, "one agreed delivery sequence")
    return [format_table(
        ["layer", "mean delivery latency", "vs fifo", "agreed total order"],
        [(layer, r.mean_delivery_latency, f"{r.mean_delivery_latency / fifo:.2f}x",
          r.agreed_order) for layer, r in results.items()],
        title="E12 ordering layers over the FIFO service (n=6)",
    )]
