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
from typing import Dict, List, Optional

from repro.checking.events import DeliverEvent, MbrshpViewEvent, SendEvent, ViewEvent
from repro.checking.properties import check_all_safety
from repro.net import ConstantLatency, SimWorld
from repro.order import CausalOrderNode, TotalOrderNode
from repro.scale import TwoTierOverlay, balanced_groups


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
    world = SimWorld(
        latency=ConstantLatency(1.0),
        membership="oracle",
        round_duration=round_duration,
        gc_views=False,
    )
    pids = [f"p{i:02d}" for i in range(group_size)]
    nodes = world.add_nodes(pids)
    if leaders:
        TwoTierOverlay(
            {node.pid: node.runner for node in nodes},
            world.clock.schedule,
            balanced_groups(pids, leaders),
            connected=world.network.connected,
        )
    world.start()
    world.run()
    for node in nodes:
        node.send("warm-" + node.pid)
    world.run()
    world.network.reset_counters()
    world.crash(pids[-1])
    world.run()
    view = world.oracle.views_formed[-1]
    membership_time = max(e.time for e in world.trace.of_type(MbrshpViewEvent) if e.view == view)
    gcs_time = max(e.time for e in world.trace.of_type(ViewEvent) if e.view == view)
    if check:
        check_all_safety(world.trace, list(world.nodes))
    counts = world.network.totals()
    sync_messages = sum(
        counts.get(kind, 0) for kind in ("SyncMsg", "UpSync", "AggregatedSync")
    )
    return TwoTierResult(
        group_size=group_size,
        leaders=leaders,
        sync_messages=sync_messages,
        extra_latency=gcs_time - membership_time,
        converged=world.all_in_view(view),
    )


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
        membership="oracle",
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
    world.network.reset_counters()
    world.heal()
    world.run()
    view = world.oracle.views_formed[-1]
    if check:
        check_all_safety(world.trace, list(world.nodes))
    return CompactSyncResult(
        group_size=group_size,
        compact=compact,
        sync_messages=world.network.core.stats.sent.get("SyncMsg", 0),
        sync_volume=world.network.core.stats.volume.get("SyncMsg", 0),
        converged=world.all_in_view(view),
    )


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
    world = SimWorld(latency=ConstantLatency(1.0), membership="oracle", round_duration=1.0)
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
