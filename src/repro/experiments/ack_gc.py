"""E15: acknowledgement-based garbage collection (Section 5.1).

"Any actual implementation of the algorithm needs to employ some sort of
a garbage collection mechanism [...] Group communication systems usually
use acknowledgments to track which messages have been delivered to all
the view members, and such messages are discarded."  Claim shape: with
ack-GC the buffer residency is bounded by the ack interval times the
group size regardless of how long the view lives; without it, residency
grows linearly with traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.registry import claim, experiment
from repro.experiments.tables import format_table
from repro.net import ConstantLatency, SimWorld


@dataclass
class AckGcResult:
    ack_interval: Optional[int]  # deliveries between acks; None = GC off
    group_size: int
    waves: int
    peak_buffered: int  # worst end-point residency, mid-flight included
    final_buffered: int  # worst end-point residency once traffic settled
    ack_messages: int
    all_delivered: bool  # every member delivered every message


def measure_ack_gc(
    ack_interval: Optional[int] = None, *, group_size: int = 5, waves: int = 30
) -> AckGcResult:
    """``waves`` rounds of one multicast per member inside one long view."""
    world = SimWorld(
        latency=ConstantLatency(1.0),
        round_duration=1.0,
        ack_gc_interval=ack_interval,
    )
    nodes = world.add_nodes([f"p{i}" for i in range(group_size)])
    world.start()
    world.run()

    def resident() -> int:
        return max(node.endpoint.buffered_messages() for node in nodes)

    peak = 0
    for wave in range(waves):
        for node in nodes:
            node.send(f"{node.pid}-{wave}")
        world.run_until(world.now() + 0.5)  # mid-flight residency counts
        peak = max(peak, resident())
        world.run()
        peak = max(peak, resident())
    return AckGcResult(
        ack_interval=ack_interval,
        group_size=group_size,
        waves=waves,
        peak_buffered=peak,
        final_buffered=resident(),
        ack_messages=world.links.totals().get("AckMsg", 0),
        all_delivered=all(len(node.delivered) == group_size * waves for node in nodes),
    )


@experiment("E15", "Acknowledgement-based garbage collection", "Section 5.1")
def run_e15() -> List[str]:
    results = [measure_ack_gc(interval) for interval in (None, 10, 5)]
    no_gc = results[0]
    claim(no_gc.final_buffered == no_gc.group_size * no_gc.waves,
          "linear growth without GC", no_gc)
    for r in results:
        claim(r.all_delivered, "every member delivers every message", r)
        if r.ack_interval is not None:
            claim(r.final_buffered < no_gc.final_buffered / 4, "bounded residency with GC", r)
            claim(r.ack_messages > 0, "GC is driven by acknowledgements", r)
    return [format_table(
        ["ack interval", "peak buffered", "final buffered", "ack msgs"],
        [(r.ack_interval or "off", r.peak_buffered, r.final_buffered, r.ack_messages)
         for r in results],
        title=f"E15 ack-based GC: buffer residency over {no_gc.waves} waves "
              f"x {no_gc.group_size} senders",
    )]
