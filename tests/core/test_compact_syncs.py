"""The Section 5.2.4 optimization: compact synchronization messages.

Processes outside the sender's current view can never include it in
their transitional sets, so they receive a cut-less, view-less sync that
only says "I am not in your transitional set".
"""

import pytest

from repro.checking import SAFETY_CODES, run_verdict
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import SyncMsg
from repro.ioa import Action
from repro.net import ConstantLatency, SimWorld
from repro.types import make_view


def drain(ep, names=None):
    executed = []
    while True:
        batch = [a for a in ep.enabled_actions() if names is None or a.name in names]
        if not batch:
            return executed
        for action in batch:
            if ep.is_enabled(action):
                ep.apply(action)
                executed.append(action)


def sync_sends(ep):
    return [
        a for a in ep.enabled_actions()
        if a.name == "co_rfifo.send" and isinstance(a.params[2], SyncMsg)
    ]


@pytest.fixture
def ep():
    endpoint = GcsEndpoint("a", compact_syncs=True)
    # settle into a two-member view {a, b}
    v1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})
    endpoint.apply(Action("mbrshp.start_change", ("a", 1, frozenset({"a", "b"}))))
    drain(endpoint, {"co_rfifo.reliable", "block"})
    endpoint.apply(Action("block_ok", ("a",)))
    drain(endpoint, {"co_rfifo.send"})
    from repro._collections import frozendict
    from repro.types import initial_view

    endpoint.apply(Action("co_rfifo.deliver", ("b", "a",
                          SyncMsg(1, initial_view("b"), frozendict({"b": 0})))))
    endpoint.apply(Action("mbrshp.view", ("a", v1)))
    drain(endpoint)
    assert endpoint.current_view == v1
    return endpoint


def test_merge_splits_sync_into_two_variants(ep):
    # a merge: start_change towards {a, b, c, d} while a's view is {a, b}
    ep.apply(Action("mbrshp.start_change", ("a", 2, frozenset("abcd"))))
    drain(ep, {"co_rfifo.reliable", "block"})
    ep.apply(Action("block_ok", ("a",)))
    sends = sync_sends(ep)
    by_compact = {m.params[2].compact: m for m in sends}
    assert set(by_compact) == {True, False}
    full, compact = by_compact[False], by_compact[True]
    assert full.params[1] == frozenset({"b"})  # shares the current view
    assert compact.params[1] == frozenset({"c", "d"})  # outside it
    assert compact.params[2].view is None and compact.params[2].cut is None


def test_both_variants_send_once(ep):
    ep.apply(Action("mbrshp.start_change", ("a", 2, frozenset("abcd"))))
    drain(ep, {"co_rfifo.reliable", "block"})
    ep.apply(Action("block_ok", ("a",)))
    executed = drain(ep, {"co_rfifo.send"})
    syncs = [a for a in executed if isinstance(a.params[2], SyncMsg)]
    assert len(syncs) == 2
    assert sync_sends(ep) == []


def test_no_compact_variant_when_sets_coincide(ep):
    ep.apply(Action("mbrshp.start_change", ("a", 2, frozenset({"a", "b"}))))
    drain(ep, {"co_rfifo.reliable", "block"})
    ep.apply(Action("block_ok", ("a",)))
    sends = sync_sends(ep)
    assert len(sends) == 1
    assert not sends[0].params[2].compact


def test_compact_recipient_excludes_sender_from_t():
    ep = GcsEndpoint("a", compact_syncs=True)
    ep.apply(Action("co_rfifo.deliver", ("z", "a", SyncMsg(7, None, None))))
    stored = ep.sync_msg_for("z", 7)
    assert stored is not None and stored.compact
    # a view naming z with that cid can now be delivered with z outside T
    v = make_view(1, ["a", "z"], {"a": 1, "z": 7})
    assert ep.transitional_set_for(v) is None or "z" not in ep.transitional_set_for(v)


def test_estimated_sizes():
    from repro._collections import frozendict

    full = SyncMsg(1, make_view(1, ["a", "b"]), frozendict({"a": 1, "b": 2}))
    assert full.estimated_size() == 1 + 2 + 2
    assert SyncMsg(1, None, None).estimated_size() == 1


class TestEndToEnd:
    def scenario(self, compact):
        world = SimWorld(
            latency=ConstantLatency(1.0),
            round_duration=2.0,
            compact_syncs=compact,
            gc_views=False,
        )
        nodes = world.add_nodes([f"p{i}" for i in range(6)])
        world.start()
        world.run()
        world.partition([["p0", "p1", "p2"], ["p3", "p4", "p5"]])
        world.run()
        for node in nodes:
            node.send("island-" + node.pid)
        world.run()
        world.links.reset_counters()
        world.heal()
        world.run()
        final = world.oracle.views_formed[-1]
        assert world.all_in_view(final)
        run_verdict(
            world.trace, list(world.nodes), final_view=final, include=SAFETY_CODES
        ).raise_for()
        return world

    def test_merge_safe_and_live_with_compact_syncs(self):
        self.scenario(compact=True)

    def test_compact_syncs_reduce_volume_not_count(self):
        plain = self.scenario(compact=False).links.stats
        compact = self.scenario(compact=True).links.stats
        assert compact.sent["SyncMsg"] == plain.sent["SyncMsg"]
        assert compact.volume["SyncMsg"] < plain.volume["SyncMsg"]

    def test_transitional_sets_identical_with_and_without(self):
        t_plain = {
            n.pid: n.views[-1][1] for n in self.scenario(False).nodes.values()
        }
        t_compact = {
            n.pid: n.views[-1][1] for n in self.scenario(True).nodes.values()
        }
        assert t_plain == t_compact
