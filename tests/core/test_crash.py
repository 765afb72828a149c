"""Unit tests for crash and recovery semantics (Section 8)."""

import pytest

from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import ViewMsg
from repro.ioa import Action
from repro.spec.client import BlockStatus
from repro.types import initial_view, make_view

V1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})


@pytest.fixture
def ep():
    return GcsEndpoint("a")


def crash(p):
    return Action("crash", (p,))


def recover(p):
    return Action("recover", (p,))


def test_crash_disables_locally_controlled_actions(ep):
    ep.apply(Action("send", ("a", "m")))
    assert ep.enabled_actions()
    ep.apply(crash("a"))
    assert ep.enabled_actions() == []


def test_crash_disables_input_effects(ep):
    ep.apply(crash("a"))
    ep.apply(Action("send", ("a", "m")))
    ep.apply(Action("co_rfifo.deliver", ("b", "a", ViewMsg(V1))))
    ep.apply(recover("a"))
    assert ep.peek_buffer("a", initial_view("a")) is None
    assert ep.view_msg == {}


def test_recover_resets_to_initial_state(ep):
    ep.apply(Action("send", ("a", "m")))
    ep.apply(Action("mbrshp.start_change", ("a", 1, frozenset({"a", "b"}))))
    ep.apply(crash("a"))
    ep.apply(recover("a"))
    assert ep.current_view == initial_view("a")
    assert ep.start_change is None
    assert ep.block_status is BlockStatus.UNBLOCKED
    assert ep.last_sent == 0


def test_recover_keeps_identity_and_configuration(ep):
    ep.apply(crash("a"))
    ep.apply(recover("a"))
    assert ep.pid == "a"
    assert ep.forwarding is not None


def test_recover_without_crash_is_a_no_op(ep):
    ep.apply(Action("send", ("a", "m")))
    ep.apply(recover("a"))
    assert ep.peek_buffer("a", initial_view("a")).get(1) == "m"


def test_is_enabled_false_while_crashed(ep):
    ep.apply(crash("a"))
    assert not ep.is_enabled(Action("view", ("a", V1, frozenset())))
    assert ep.is_enabled(recover("a"))


def test_crashed_flag_lifecycle(ep):
    assert not ep.crashed
    ep.apply(crash("a"))
    assert ep.crashed
    ep.apply(recover("a"))
    assert not ep.crashed


def test_rejoin_after_recovery_accepts_new_views(ep):
    ep.apply(crash("a"))
    ep.apply(recover("a"))
    ep.apply(Action("mbrshp.start_change", ("a", 7, frozenset({"a", "b"}))))
    v = make_view(5, ["a", "b"], {"a": 7, "b": 3})
    ep.apply(Action("mbrshp.view", ("a", v)))
    assert ep.mbrshp_view == v
    # Local Monotonicity holds because the membership service's watermarks
    # survive (v.id exceeds anything delivered before the crash).
    assert v.vid > ep.current_view.vid
