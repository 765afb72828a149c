"""The GCS over real TCP sockets on loopback.

Every wire message - view announcements, application payloads,
synchronization messages - crosses an actual socket, framed and pickled,
through :class:`~repro.runtime.cluster.TcpDeployment`.  This is the
closest analogue in this repository to the paper's C++ deployment.

Run with:  python examples/tcp_sockets.py
"""

import asyncio

from repro.checking import SAFETY_CODES, run_verdict
from repro.runtime import TcpDeployment


async def main() -> None:
    async with TcpDeployment() as cluster:
        nodes = await cluster.add_nodes(["athens", "berlin", "cairo"])
        view = await cluster.start()
        # Members and the membership server alike listen on a socket.
        ports = {pid: port for pid, (_host, port) in cluster.fabric.addresses.items()}
        print(f"view {view.vid} over sockets {ports}")

        await nodes[0].send("routed through the kernel")
        await nodes[1].send("and back")
        await asyncio.sleep(0.2)

        for node in nodes:
            received = [f"view {v.vid}, T={sorted(t)}" for v, t in node.views]
            received += [f"{sender}: {payload!r}" for sender, payload in node.delivered]
            print(f"{node.pid} saw: {received}")

        smaller = await cluster.reconfigure(["athens", "berlin"])
        print(f"\ncairo left: view {smaller.vid} = {sorted(smaller.members)}")
        await nodes[0].send("just two capitals now")
        await asyncio.sleep(0.2)

        run_verdict(cluster.trace, list(cluster.nodes), include=SAFETY_CODES).raise_for()
        print("safety battery passed over real sockets")


if __name__ == "__main__":
    asyncio.run(main())
