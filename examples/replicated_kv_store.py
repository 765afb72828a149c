"""A primary-partition replicated key-value store.

Builds the full stack the paper enables: the GCS provides virtually
synchronous FIFO multicast; the total-order layer sequences commands;
:class:`~repro.apps.state_machine.ReplicatedStateMachine` applies them on
every replica and handles state transfer at merges via transitional
sets.  With a configured universe, only a majority partition accepts
writes - the minority serves (possibly stale) reads and catches up on the
merge.

Run with:  python examples/replicated_kv_store.py
"""

from __future__ import annotations

from repro import ConstantLatency, NotPrimaryError, ReplicatedStateMachine, SimWorld
from repro.checking import SAFETY_CODES, run_verdict


def apply_op(state: dict, operation) -> dict:
    kind, key, value = operation
    updated = dict(state)
    if kind == "put":
        updated[key] = value
    elif kind == "del":
        updated.pop(key, None)
    return updated


def main() -> None:
    pids = ["kv1", "kv2", "kv3", "kv4", "kv5"]
    universe = frozenset(pids)
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=2.0)
    stores = {}
    for pid in pids:
        node = world.add_node(pid)
        stores[pid] = ReplicatedStateMachine(node, {}, apply_op, universe=universe)
    world.start()
    world.run()

    stores["kv1"].command(("put", "motd", "welcome"))
    stores["kv2"].command(("put", "limit", 10))
    world.run()
    print("after two writes:", stores["kv3"].state)

    print("\n--- partition: majority {kv1..kv3} | minority {kv4, kv5} ---")
    world.partition([pids[:3], pids[3:]])
    world.run()
    stores["kv1"].command(("put", "motd", "majority rules"))
    world.run()
    try:
        stores["kv4"].command(("put", "motd", "minority report"))
    except NotPrimaryError as error:
        print("minority write rejected:", error)
    print("majority sees:", stores["kv2"].state)
    print("minority still serves stale reads:", stores["kv4"].state)

    print("\n--- heal: minority catches up via state transfer ---")
    world.heal()
    world.run()
    values = {pid: store.state for pid, store in stores.items()}
    assert len({tuple(sorted(v.items())) for v in values.values()}) == 1
    print("all replicas converged to:", stores["kv4"].state)

    run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
    print("\nsafety battery passed")


if __name__ == "__main__":
    main()
