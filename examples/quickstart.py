"""Quickstart: a three-member group exchanging messages through the GCS.

Demonstrates the asyncio runtime: create a cluster, form a view, multicast
a few messages, watch a membership change deliver a new view with its
transitional set, and see Self Delivery and FIFO order in action.

Run with:  python examples/quickstart.py
"""

import asyncio

from repro import AsyncDeployment


async def main() -> None:
    async with AsyncDeployment() as cluster:
        alice, bob, carol = await cluster.add_nodes(["alice", "bob", "carol"])

        view = await cluster.start()
        print(f"initial view: {sorted(view.members)} (id {view.vid})")

        # Every member multicasts; the service delivers each message to
        # every member of the view in which it was sent, in FIFO order,
        # including back to the sender (Self Delivery).
        await alice.send("hello from alice")
        await bob.send("hi, this is bob")
        await carol.send("carol here")
        await cluster.settle()

        # Each node keeps what its application saw: the views it
        # installed, with their transitional sets, and the messages it
        # delivered, in order.
        for node in (alice, bob, carol):
            print(f"\n{node.pid} observed:")
            for installed, transitional in node.views:
                print(f"  view {installed.vid}: members {sorted(installed.members)}, "
                      f"transitional set {sorted(transitional)}")
            for sender, payload in node.delivered:
                print(f"  message from {sender}: {payload!r}")

        # Carol leaves.  The survivors move together, so the transitional
        # set they receive with the new view is {alice, bob} - they know
        # they agree on everything delivered so far and can skip any
        # state-transfer round (the point of Virtual Synchrony).
        new_view = await cluster.reconfigure(["alice", "bob"])
        print(f"\nafter carol left: view {new_view.vid} = {sorted(new_view.members)}")
        for node in (alice, bob):
            _installed, transitional = node.views[-1]
            print(f"  {node.pid}: transitional set {sorted(transitional)}")

        # An application can also take each delivery as it happens.
        bob.set_app(on_deliver=lambda sender, payload: print(
            f"\nbob got: {payload!r} from {sender}"))
        await alice.send("just the two of us now")
        await cluster.settle()

        # The recorded trace passes the paper's full safety battery.
        from repro import SAFETY_CODES, run_verdict
        run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()
        print("\nall safety properties verified on the recorded trace")


if __name__ == "__main__":
    asyncio.run(main())
