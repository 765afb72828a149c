"""Full-stack integration: groups x ordering x state machines.

These scenarios combine the extension layers the way a real application
would, over the simulated deployment, and check both the application-level
outcome and the GCS safety battery.
"""

import pytest

from repro.apps import ReplicatedStateMachine
from repro.checking import SAFETY_CODES, run_verdict
from repro.net import ConstantLatency, SimWorld, UniformLatency
from repro.order import TotalOrderNode


class TestOrderingOverGroups:
    def test_total_order_per_group(self):
        world = SimWorld(latency=ConstantLatency(1.0), servers=2)
        pids = ["p0", "p1", "p2"]
        world.add_processes(pids)
        for pid in pids:
            world.join(pid, "chat")
            world.join(pid, "audit")

        # A named group's node is the member the layers expect: no adapter.
        # (Attached before the notices land, so the layers see the views.)
        chat = [TotalOrderNode(world.node(p, "chat")) for p in pids]
        audit = [TotalOrderNode(world.node(p, "audit")) for p in pids]
        world.run()

        for i in range(3):
            chat[i].broadcast(f"c{i}")
            audit[i].broadcast(f"a{i}")
        world.run()
        chat_orders = {tuple(n.total_order()) for n in chat}
        audit_orders = {tuple(n.total_order()) for n in audit}
        assert len(chat_orders) == 1
        assert len(audit_orders) == 1
        assert {p for _s, p in chat_orders.pop()} == {"c0", "c1", "c2"}
        assert {p for _s, p in audit_orders.pop()} == {"a0", "a1", "a2"}
        for group in ("chat", "audit"):
            run_verdict(world.trace_of(group), pids, include=SAFETY_CODES).raise_for()


class TestStateMachineUnderJitter:
    @pytest.mark.parametrize("seed", range(3))
    def test_bank_accounts_converge(self, seed):
        def apply_op(state, operation):
            kind, account, amount = operation
            balances = dict(state)
            if kind == "deposit":
                balances[account] = balances.get(account, 0) + amount
            elif kind == "withdraw" and balances.get(account, 0) >= amount:
                balances[account] = balances[account] - amount
            return balances

        world = SimWorld(
            latency=UniformLatency(0.2, 2.5, seed=seed),
            round_duration=2.0,
        )
        pids = [f"bank{i}" for i in range(4)]
        replicas = [
            ReplicatedStateMachine(world.add_node(pid), {}, apply_op)
            for pid in pids
        ]
        world.start()
        world.run()
        replicas[0].command(("deposit", "alice", 100))
        replicas[1].command(("withdraw", "alice", 30))
        replicas[2].command(("deposit", "bob", 50))
        replicas[3].command(("withdraw", "alice", 100))  # may bounce, same everywhere
        world.run()
        states = {tuple(sorted(r.state.items())) for r in replicas}
        assert len(states) == 1, states
        final = dict(states.pop())
        assert final["bob"] == 50
        assert final["alice"] in (70, 170 - 130, 0, 70 - 0)  # deterministic per order
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_crash_mid_commands_keeps_survivors_consistent(self):
        def apply_op(state, operation):
            return state + [operation]

        world = SimWorld(latency=ConstantLatency(1.0), round_duration=2.0)
        pids = ["r0", "r1", "r2"]
        replicas = [ReplicatedStateMachine(world.add_node(p), [], apply_op) for p in pids]
        world.start()
        world.run()
        replicas[0].command("op-1")
        world.run_until(world.now() + 0.5)
        world.crash("r2")
        world.run()
        replicas[1].command("op-2")
        world.run()
        assert replicas[0].state == replicas[1].state
        assert replicas[0].state[-1] == "op-2"
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
