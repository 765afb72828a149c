"""The control plane, stated once and held on every deployment flavour.

``Deployment.reconfigure`` / ``partition`` / ``heal`` / ``crash`` /
``recover`` / ``server_*`` are written once, on the base class, over the
one membership surface the scripted oracle and the server tier share.
This suite states what they return and what they refuse, and runs each
statement on the simulator (oracle), the simulator with two servers, the
asyncio hub and loopback TCP.
"""

import pytest

from repro.checking.events import CrashEvent, RecoverEvent
from repro.deploy import run_scenario

FLAVOURS = {
    "sim-oracle": ("sim", {}),
    "sim-servers=2": ("sim", {"servers": 2}),
    "async": ("async", {}),
    "tcp": ("tcp", {}),
}


@pytest.fixture(params=list(FLAVOURS))
def run(request):
    substrate, kwargs = FLAVOURS[request.param]

    def run(scenario, **extra):
        return run_scenario(substrate, scenario, **{**kwargs, **extra})

    run.has_servers = request.param != "sim-oracle"
    return run


def control_state(d):
    """What a rejected call must leave alone: the views formed, the cid
    and view counters of either issuer, the trace, who is crashed."""
    membership = d.membership
    counters = {
        name: repr(getattr(membership, name, None))
        for name in ("_cid", "_counter", "_cid_registry")
    }
    tier_watermark = membership.watermark() if membership.servers else None
    return (
        list(membership.views_formed),
        counters,
        tier_watermark,
        len(d.trace),
        {pid: (d.nodes[pid].crashed, d.current_view(pid)) for pid in d.processes()},
    )


async def rejected(d, call, *args, match=None):
    """``call(*args)`` is a ValueError that touched nothing - and the
    deployment is as usable afterwards as before."""
    await d.settle()
    before = control_state(d)
    with pytest.raises(ValueError, match=match):
        await call(*args)
    await d.settle()
    assert control_state(d) == before
    sender = next(pid for pid in d.processes() if not d.nodes[pid].crashed)
    await d.send(sender, ("after", call.__name__, len(d.trace)))
    await d.settle()
    d.check()


def test_operations_return_the_views_they_waited_for(run):
    async def scenario(d):
        everyone = await d.setup(["a", "b", "c", "d"])
        assert everyone.members == {"a", "b", "c", "d"}
        assert all(d.current_view(pid) == everyone for pid in "abcd")

        smaller = await d.reconfigure(["a", "b", "c"])
        assert smaller.members == {"a", "b", "c"} and d.current_view("a") == smaller
        again = await d.reconfigure(["c", "b", "a"])  # nothing to change
        assert again.members == {"a", "b", "c"} and d.current_view("a") == again
        assert (await d.reconfigure("abcd")).members == {"a", "b", "c", "d"}

        assert await d.crash("d") is None
        assert d.nodes["d"].crashed and d.current_view("a").members == {"a", "b", "c"}

        # Per-group views in group order; a crashed member holds none.
        first, second = await d.partition([["c", "d"], ["a", "b"]])
        assert first.members == {"c"} and second.members == {"a", "b"}
        assert d.current_view("c") == first and d.current_view("b") == second
        merged = await d.heal()
        assert merged.members == {"a", "b", "c"} and d.current_view("c") == merged
        # A group of crashed members only forms nothing to return.
        (only,) = await d.partition([["d"], ["a", "b", "c"]])
        assert only.members == {"a", "b", "c"}
        await d.heal()

        readmitted = await d.recover("d")
        assert readmitted.members == {"a", "b", "c", "d"}
        assert d.current_view("d") == readmitted and not d.nodes["d"].crashed
        await d.send("d", "back")
        await d.settle()
        assert all(("d", "back") in d.delivered(pid) for pid in "abcd")

    run(scenario).check()


def test_illegal_arguments_are_rejected_before_anything_is_touched(run):
    async def scenario(d):
        await d.setup(["a", "b", "c"])
        await rejected(d, d.reconfigure, ["a", "z"], match="unknown processes")
        await rejected(d, d.reconfigure, [], match="empty member set")
        await rejected(d, d.partition, [["a", "z"], ["b", "c"]], match="unknown processes")
        await rejected(d, d.partition, [["a", "b", "c"], []], match="empty member set")
        await rejected(d, d.partition, [["a", "b"], ["b", "c"]], match="overlapping")
        await rejected(d, d.crash, "z", match="unknown processes")
        await rejected(d, d.recover, "z", match="unknown processes")
        assert (await d.reconfigure(["a", "b"])).members == {"a", "b"}

    run(scenario).check()


def test_crash_and_recover_apply_once(run):
    async def scenario(d):
        await d.setup(["a", "b", "c"])
        await rejected(d, d.recover, "c", match="not crashed")  # never crashed
        await d.crash("c")
        await rejected(d, d.crash, "c", match="already crashed")
        await d.recover("c")
        await rejected(d, d.recover, "c", match="not crashed")

    deployment = run(scenario)
    kinds = [type(e) for e in deployment.trace if isinstance(e, (CrashEvent, RecoverEvent))]
    assert kinds == [CrashEvent, RecoverEvent]
    deployment.check()


def test_server_operations_need_servers(run):
    async def scenario(d):
        await d.setup(["a", "b"])
        if run.has_servers:
            assert d.server_ids() == ["srv:0"]
            await rejected(d, d.server_crash, match="last alive server")
            await rejected(d, d.server_crash, "srv:9", match="unknown server")
            await rejected(d, d.server_recover, "srv:0", match="not crashed")
        else:
            assert d.server_ids() == []
            for call, args in (
                (d.server_crash, ()),
                (d.server_recover, ("srv:0",)),
                (d.server_partition, ([["srv:0"]],)),
            ):
                await rejected(d, call, *args, match="no membership servers")

    run(scenario, **({"servers": 1} if run.has_servers else {})).check()
