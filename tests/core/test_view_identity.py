"""One ``View`` object per view in an end-point, on every substrate.

A socket decodes each peer's views as objects of their own, equal to the
receiver's but not it.  ``WvRfifoEndpoint`` keeps its own object when a
``ViewMsg`` announces a view equal to its membership or current view, so
the fast lane's identity test on ``view_msg[q]`` hits and a steady
receive pays no ``View.__eq__``.
"""

from __future__ import annotations

import asyncio

from repro.runtime import TcpDeployment
from repro.types import View


def test_announced_views_are_the_receivers_own_objects_on_tcp(monkeypatch):
    async def scenario():
        async with TcpDeployment() as cluster:
            await cluster.setup(["a", "b", "c"])
            await cluster.settle()
            for pid in "abc":  # each member announces the view with its first send
                await cluster.send(pid, f"hello-{pid}")
            await cluster.settle()
            for pid in "abc":
                ep = cluster.nodes[pid].endpoint
                for q in "abc".replace(pid, ""):
                    assert ep.view_msg[q] is ep.current_view, (pid, q)
                    assert any(view is ep.current_view for view in ep.msgs[q]), (pid, q)

            calls = []
            equal = View.__eq__

            def counting(self, other):
                calls.append((self, other))
                return equal(self, other)

            monkeypatch.setattr(View, "__eq__", counting)
            before = {pid: len(cluster.nodes[pid].delivered) for pid in "abc"}
            for i in range(20):
                await cluster.send("abc"[i % 3], f"ping-{i}")
            await cluster.settle()
            monkeypatch.setattr(View, "__eq__", equal)
            assert all(len(cluster.nodes[pid].delivered) == before[pid] + 20 for pid in "abc")
            assert calls == []

    asyncio.run(scenario())
