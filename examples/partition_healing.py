"""Partitions, concurrent views, and message recovery by forwarding.

A six-member group splits into two islands; both keep working in their
own (concurrent, disjoint) views - the service is *partitionable*.  One
sender's messages reach only part of its island before it is cut off;
the survivors agree on the prefix to deliver and the forwarding strategy
(Section 5.2.2) repairs the missing copies so Virtual Synchrony holds.

Run with:  python examples/partition_healing.py
"""

from __future__ import annotations

from repro import SAFETY_CODES, MinCopiesStrategy, SimWorld, run_verdict
from repro.net.latency import LatencyModel


class IslandLatency(LatencyModel):
    """1.0 everywhere, except the doomed sender is slow towards most peers,
    so only its fastest neighbour holds its last messages at cut time."""

    def sample(self, src, dst):
        if src == "p5" and dst != "p0":
            return 30.0
        return 1.0

    def mean(self):
        return 1.0


def main() -> None:
    world = SimWorld(
        latency=IslandLatency(),
        round_duration=2.0,
        forwarding=MinCopiesStrategy(),
    )
    pids = [f"p{i}" for i in range(6)]
    nodes = world.add_nodes(pids)
    world.start()
    world.run()
    print("initial view:", sorted(nodes[0].current_view.members))

    # p5 multicasts, but only p0 receives before the cut.
    nodes[5].send("last words 1")
    nodes[5].send("last words 2")
    world.run_until(world.now() + 1.05)
    print("\n--- partition: {p0..p4} | {p5} ---")
    world.links.reset_counters()
    world.partition([pids[:5], [pids[5]]])
    world.run()

    for node in nodes[:5]:
        got = [m for s, m in node.delivered if s == "p5"]
        print(f"  {node.pid} delivered from p5: {got}")
    copies = world.links.totals().get("FwdMsg", 0)
    print(f"  forwarded copies on the wire: {copies} "
          f"(min-copies: one per missing message)")

    # Both islands keep multicasting in their own views.
    nodes[0].send("majority life goes on")
    nodes[5].send("minority soliloquy")
    world.run()

    print("\n--- heal ---")
    world.heal()
    world.run()
    final = world.oracle.views_formed[-1]
    print("merged view:", sorted(final.members))
    for node in nodes:
        t = dict(node.views)[final]
        print(f"  {node.pid}: transitional set {sorted(t)}")

    run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
    print("\nsafety battery passed "
          "(virtual synchrony held through partition, recovery, and merge)")


if __name__ == "__main__":
    main()
