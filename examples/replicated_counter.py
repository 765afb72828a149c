"""State-machine replication over virtually synchronous multicast.

The application the paper's Section 4.1.2 motivates: replicas apply
deterministic operations in the order the group delivers them.  Virtual
Synchrony guarantees that replicas moving together between views have
applied the *same* operations, and the transitional set tells each
replica exactly who it is already consistent with - so state transfer is
needed only towards members arriving from other views.

The demo runs three replicated counters, partitions the group, lets the
majority side advance, then heals the partition and uses the transitional
sets to decide who must send state to whom.

Run with:  python examples/replicated_counter.py
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from repro import SAFETY_CODES, ConstantLatency, SimWorld, View, run_verdict
from repro.net import SimNode


@dataclass
class CounterReplica:
    """A replicated counter driven by GCS deliveries."""

    pid: str
    node: SimNode
    value: int = 0
    applied: int = 0
    log: List[str] = field(default_factory=list)

    def increment(self, amount: int) -> None:
        """Propose an increment by multicasting it to the current view."""
        self.node.send(("add", amount))

    # -- GCS callbacks ----------------------------------------------------

    def on_deliver(self, sender: str, payload) -> None:
        kind = payload[0]
        if kind == "add":
            self.value += payload[1]
            self.applied += 1
        elif kind == "state":
            _kind, value, applied = payload
            if applied > self.applied:  # adopt snapshots ahead of us
                self.value, self.applied = value, applied
                self.log.append(f"adopted state ({value}, {applied}) from {sender}")

    def on_view(self, view: View, transitional: FrozenSet[str]) -> None:
        self.log.append(
            f"view {view.vid} members={sorted(view.members)} T={sorted(transitional)}"
        )
        # Members outside the transitional set may have diverged.  Virtual
        # Synchrony lets everyone inside T skip state transfer among
        # themselves; the deterministic rule here is that the least member
        # of T broadcasts the snapshot for the others to adopt.
        newcomers = view.members - transitional
        if newcomers and self.pid == min(transitional):
            self.node.send(("state", self.value, self.applied))
            self.log.append(f"sent state for {sorted(newcomers)}")


def main() -> None:
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=2.0)
    replicas: Dict[str, CounterReplica] = {}
    for pid in ("r1", "r2", "r3"):
        node = world.add_node(pid)
        replica = CounterReplica(pid, node)
        node.set_app(on_deliver=replica.on_deliver, on_view=replica.on_view)
        replicas[pid] = replica
    world.start()
    world.run()

    replicas["r1"].increment(5)
    replicas["r2"].increment(7)
    world.run()
    show(replicas, "after two increments")

    print("\n--- partition: {r1, r2} | {r3} ---")
    world.partition([["r1", "r2"], ["r3"]])
    world.run()
    replicas["r1"].increment(100)  # the majority side advances alone
    world.run()
    show(replicas, "while partitioned (r3 is behind)")

    print("\n--- heal ---")
    world.heal()
    world.run()
    show(replicas, "after heal + state transfer")
    assert len({(r.value, r.applied) for r in replicas.values()}) == 1

    run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
    print("\nsafety battery passed; event log of r3:")
    for line in replicas["r3"].log:
        print("  ", line)


def show(replicas: Dict[str, CounterReplica], caption: str) -> None:
    states = {pid: (r.value, r.applied) for pid, r in replicas.items()}
    print(f"{caption}: {states}")


if __name__ == "__main__":
    main()
