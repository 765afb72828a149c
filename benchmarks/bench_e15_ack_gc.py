"""E15 - acknowledgement-based garbage collection (Section 5.1).

Paper: "Any actual implementation of the algorithm needs to employ some
sort of a garbage collection mechanism [...] Group communication systems
usually use acknowledgments to track which messages have been delivered
to all the view members, and such messages are discarded."  Claim shape:
with ack-GC the buffer residency is bounded by the ack interval times the
group size regardless of how long the view lives; without it, residency
grows linearly with traffic.
"""

from repro.experiments import format_table
from repro.net import ConstantLatency, SimWorld

WAVES = 30
GROUP = 5


def run_traffic(ack_interval):
    world = SimWorld(
        latency=ConstantLatency(1.0),
        membership="oracle",
        round_duration=1.0,
        ack_gc_interval=ack_interval,
    )
    nodes = world.add_nodes([f"p{i}" for i in range(GROUP)])
    world.start()
    world.run()
    peak = 0
    for wave in range(WAVES):
        for node in nodes:
            node.send(f"{node.pid}-{wave}")
        world.run_until(world.now() + 0.5)  # mid-flight residency counts
        peak = max(peak, max(n.endpoint.buffered_messages() for n in nodes))
        world.run()
        peak = max(peak, max(n.endpoint.buffered_messages() for n in nodes))
    final = max(n.endpoint.buffered_messages() for n in nodes)
    acks = world.network.totals().get("AckMsg", 0)
    assert all(len(n.delivered) == GROUP * WAVES for n in nodes)
    return peak, final, acks


def test_e15_buffer_residency(benchmark, report):
    def run():
        return {ack: run_traffic(ack) for ack in (None, 10, 5)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for ack, (peak, final, acks) in results.items():
        rows.append((ack or "off", peak, final, acks))
    no_gc_final = results[None][1]
    assert no_gc_final == GROUP * WAVES  # linear growth without GC
    for ack in (10, 5):
        assert results[ack][1] < no_gc_final / 4  # bounded with GC
        assert results[ack][2] > 0
    report.add(
        format_table(
            ["ack interval", "peak buffered", "final buffered", "ack msgs"],
            rows,
            title=f"E15 ack-based GC: buffer residency over {WAVES} waves x {GROUP} senders",
        )
    )
