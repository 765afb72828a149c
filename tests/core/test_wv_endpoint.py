"""Unit tests for the within-view reliable FIFO end-point (Figure 9)."""

import pytest

from repro.core.messages import AppMsg, FwdMsg, ViewMsg
from repro.core.wv_endpoint import WvRfifoEndpoint
from repro.ioa import Action
from repro.types import initial_view, make_view


@pytest.fixture
def ep():
    return WvRfifoEndpoint("a", strict=True)


def mbrshp_view(p, v):
    return Action("mbrshp.view", (p, v))


def wire_deliver(q, p, m):
    return Action("co_rfifo.deliver", (q, p, m))


V1 = make_view(1, ["a", "b", "c"], {"a": 1, "b": 1, "c": 1})


def install(ep, v=V1):
    """Install ``v`` with its reliable set; its marker waits for a send."""
    ep.apply(mbrshp_view(ep.pid, v))
    ep.apply(Action("view", (ep.pid, v)))
    ep.apply(Action("co_rfifo.reliable", (ep.pid, frozenset(v.members))))


def announce(ep):
    """Send the current view's marker (enabled once a message waits)."""
    v = ep.current_view
    ep.apply(Action("co_rfifo.send", (ep.pid, frozenset(v.members - {ep.pid}), ViewMsg(v))))


def wire_sends(ep):
    return [a for a in ep.enabled_actions() if a.name == "co_rfifo.send"]


class TestViews:
    def test_membership_view_buffered_then_delivered(self, ep):
        ep.apply(mbrshp_view("a", V1))
        assert ep.mbrshp_view == V1
        assert ep.current_view == initial_view("a")
        assert ep.is_enabled(Action("view", ("a", V1)))
        ep.apply(Action("view", ("a", V1)))
        assert ep.current_view == V1

    def test_view_only_for_current_mbrshp_view(self, ep):
        other = make_view(9, ["a"], {"a": 9})
        assert not ep.is_enabled(Action("view", ("a", other)))

    def test_view_requires_increasing_id(self, ep):
        install(ep)
        stale = make_view(0, ["a"], {"a": 0})
        ep.mbrshp_view = stale  # simulate (would violate MBRSHP anyway)
        assert not ep.is_enabled(Action("view", ("a", stale)))

    def test_view_resets_counters(self, ep):
        install(ep)
        ep.apply(Action("send", ("a", "m")))
        announce(ep)
        ep.apply(Action("co_rfifo.send", ("a", frozenset({"b", "c"}),
                                          AppMsg("m", V1, 1))))
        v2 = make_view(2, ["a", "b", "c"], {"a": 2, "b": 2, "c": 2})
        ep.apply(mbrshp_view("a", v2))
        ep.apply(Action("view", ("a", v2)))
        assert ep.last_sent == 0
        assert ep.dlvrd("a") == 0


class TestSendPath:
    def test_view_msg_required_before_app_messages(self, ep):
        install(ep)
        ep.apply(Action("send", ("a", "m1")))
        sends = wire_sends(ep)
        assert len(sends) == 1
        assert isinstance(sends[0].params[2], ViewMsg)

    def test_view_msg_needs_reliable_superset(self, ep):
        ep.apply(mbrshp_view("a", V1))
        ep.apply(Action("view", ("a", V1)))
        ep.apply(Action("send", ("a", "m1")))  # a message waits
        # reliable_set is still {a}: the ViewMsg send must not be offered
        sends = [a for a in ep.enabled_actions() if a.name == "co_rfifo.send"]
        assert sends == []
        ep.apply(Action("co_rfifo.reliable", ("a", frozenset(V1.members))))
        assert [type(a.params[2]) for a in wire_sends(ep)] == [ViewMsg]

    def test_app_send_stream_in_fifo_order(self, ep):
        install(ep)
        ep.apply(Action("send", ("a", "m1")))
        ep.apply(Action("send", ("a", "m2")))
        announce(ep)
        first = next(a for a in ep.enabled_actions() if a.name == "co_rfifo.send")
        assert first.params[2].payload == "m1"
        ep.apply(first)
        second = next(a for a in ep.enabled_actions() if a.name == "co_rfifo.send")
        assert second.params[2].payload == "m2"
        assert ep.last_sent == 1

    def test_app_msg_carries_history_tags(self, ep):
        install(ep)
        ep.apply(Action("send", ("a", "m1")))
        announce(ep)
        msg = next(a for a in ep.enabled_actions() if a.name == "co_rfifo.send").params[2]
        assert msg.history_view == V1
        assert msg.history_index == 1

    def test_self_delivery_gated_on_wire_send(self, ep):
        install(ep)
        ep.apply(Action("send", ("a", "mine")))
        assert not ep.is_enabled(Action("deliver", ("a", "a", "mine")))
        announce(ep)
        assert not ep.is_enabled(Action("deliver", ("a", "a", "mine")))
        send = next(a for a in ep.enabled_actions() if a.name == "co_rfifo.send")
        ep.apply(send)
        assert ep.is_enabled(Action("deliver", ("a", "a", "mine")))

    def test_singleton_view_still_pumps_sends(self, ep):
        # In the initial singleton view the no-op wire sends must still be
        # offered, or self-delivery would deadlock.
        ep.apply(Action("send", ("a", "solo")))
        names = [a.name for a in ep.enabled_actions()]
        assert "co_rfifo.send" in names


class TestLazyMarker:
    """The marker waits for an application message of the view."""

    def test_no_wire_send_after_a_view_with_nothing_to_send(self, ep):
        install(ep)
        assert wire_sends(ep) == []
        assert not ep.is_enabled(
            Action("co_rfifo.send", ("a", frozenset({"b", "c"}), ViewMsg(V1)))
        )
        assert ep.view_msg_of("a") == initial_view("a")

    def test_marker_precedes_the_first_app_msg(self, ep):
        install(ep)
        ep.apply(Action("send", ("a", "m1")))
        order = []
        while sends := wire_sends(ep):
            assert len(sends) == 1
            ep.apply(sends[0])
            order.append(sends[0].params[2])
        assert order == [ViewMsg(V1), AppMsg("m1", V1, 1)]
        assert ep.view_msg_of("a") == V1 and ep.last_sent == 1

    def test_marker_goes_once_per_view(self, ep):
        install(ep)
        for payload in ("m1", "m2"):
            ep.apply(Action("send", ("a", payload)))
        kinds = []
        while sends := wire_sends(ep):
            ep.apply(sends[0])
            kinds.append(type(sends[0].params[2]))
        assert kinds == [ViewMsg, AppMsg, AppMsg]


class TestReceivePath:
    def test_app_message_associated_with_latest_view_msg(self, ep):
        install(ep)
        ep.apply(wire_deliver("b", "a", ViewMsg(V1)))
        ep.apply(wire_deliver("b", "a", AppMsg("mb1")))
        assert ep.peek_buffer("b", V1).get(1) == "mb1"
        assert ep.rcvd("b") == 1

    def test_view_msg_resets_received_counter(self, ep):
        install(ep)
        ep.apply(wire_deliver("b", "a", ViewMsg(V1)))
        ep.apply(wire_deliver("b", "a", AppMsg("mb1")))
        v2 = make_view(2, ["a", "b"], {"a": 2, "b": 2})
        ep.apply(wire_deliver("b", "a", ViewMsg(v2)))
        assert ep.rcvd("b") == 0
        ep.apply(wire_deliver("b", "a", AppMsg("mb2")))
        assert ep.peek_buffer("b", v2).get(1) == "mb2"

    def test_delivery_in_view_and_order(self, ep):
        install(ep)
        ep.apply(wire_deliver("b", "a", ViewMsg(V1)))
        ep.apply(wire_deliver("b", "a", AppMsg("mb1")))
        ep.apply(wire_deliver("b", "a", AppMsg("mb2")))
        assert not ep.is_enabled(Action("deliver", ("a", "b", "mb2")))
        ep.apply(Action("deliver", ("a", "b", "mb1")))
        ep.apply(Action("deliver", ("a", "b", "mb2")))
        assert ep.dlvrd("b") == 2

    def test_messages_from_older_view_not_delivered_in_current(self, ep):
        old = make_view(1, ["a", "b"], {"a": 1, "b": 1})
        new = make_view(2, ["a", "b"], {"a": 2, "b": 2})
        ep.apply(wire_deliver("b", "a", ViewMsg(old)))
        ep.apply(wire_deliver("b", "a", AppMsg("stale")))
        install(ep, new)
        assert not ep.is_enabled(Action("deliver", ("a", "b", "stale")))


class TestForwardedMessages:
    def test_forwarded_message_stored_at_index(self, ep):
        install(ep)
        ep.apply(wire_deliver("b", "a", FwdMsg("c", V1, 2, "mc2")))
        assert ep.peek_buffer("c", V1).get(2) == "mc2"
        assert ep.peek_buffer("c", V1).longest_prefix() == 0

    def test_forwarded_fills_hole_and_enables_delivery(self, ep):
        install(ep)
        ep.apply(wire_deliver("b", "a", FwdMsg("c", V1, 2, "mc2")))
        ep.apply(wire_deliver("b", "a", FwdMsg("c", V1, 1, "mc1")))
        ep.apply(Action("deliver", ("a", "c", "mc1")))
        ep.apply(Action("deliver", ("a", "c", "mc2")))
        assert ep.dlvrd("c") == 2

    def test_fwd_send_requires_having_the_message(self, ep):
        install(ep)
        bogus = FwdMsg("c", V1, 1, "never-seen")
        assert not ep.is_enabled(Action("co_rfifo.send", ("a", frozenset({"b"}), bogus)))


class TestReliable:
    def test_reliable_candidates_only_on_change(self, ep):
        install(ep)
        assert not any(a.name == "co_rfifo.reliable" for a in ep.enabled_actions())

    def test_reliable_requires_view_superset(self, ep):
        install(ep)
        too_small = frozenset({"a"})
        assert not ep.is_enabled(Action("co_rfifo.reliable", ("a", too_small)))
