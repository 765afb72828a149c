"""Negative tests for the channel-level invariants (6.3-6.6).

These invariants inspect CO_RFIFO channel contents.  The fixture runs two
real end-points over explicit channel lists (a zero-latency hand-pumped
network), then each test plants a specific corruption and expects the
corresponding invariant to flag it.
"""

import pytest

from repro.checking.invariants import (
    WorldView,
    invariant_6_3,
    invariant_6_4,
    invariant_6_5,
    invariant_6_6,
)
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import AppMsg, FwdMsg, ViewMsg
from repro.core.runner import EndpointRunner
from repro.errors import InvariantViolation
from repro.types import make_view

V1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})
V2 = make_view(2, ["a", "b"], {"a": 2, "b": 2})


class ManualWorld:
    """Two end-points over hand-pumped channel lists."""

    def __init__(self):
        self.endpoints = {}
        self.runners = {}
        self.channels = {("a", "b"): [], ("b", "a"): []}
        for pid in ("a", "b"):
            endpoint = GcsEndpoint(pid)
            self.endpoints[pid] = endpoint
            self.runners[pid] = EndpointRunner(
                endpoint,
                send_wire=lambda targets, m, p=pid: self._enqueue(p, targets, m),
                set_reliable=lambda targets: None,
            )

    def _enqueue(self, src, targets, message):
        for dst in targets:
            if dst != src:
                self.channels[(src, dst)].append(message)

    def pump(self):
        """Deliver everything currently queued, repeatedly, to quiescence."""
        progressed = True
        while progressed:
            progressed = False
            for (src, dst), queue in self.channels.items():
                while queue:
                    message = queue.pop(0)
                    self.runners[dst].receive(src, message)
                    progressed = True

    def view(self):
        return WorldView(
            self.endpoints,
            channel_of=lambda p, q: self.channels.get((p, q), []),
            reliable_set_of=lambda p: self.endpoints[p].reliable_set,
        )


@pytest.fixture
def world():
    w = ManualWorld()
    for pid in ("a", "b"):
        w.runners[pid].membership_start_change(1, {"a", "b"})
    w.pump()
    for pid in ("a", "b"):
        w.runners[pid].membership_view(V1)
    w.pump()
    for pid in ("a", "b"):
        assert w.endpoints[pid].current_view == V1
    return w


def test_clean_world_passes(world):
    view = world.view()
    invariant_6_3(view)
    invariant_6_4(view)
    invariant_6_5(view)
    invariant_6_6(view)


def test_clean_world_with_traffic_passes(world):
    world.runners["a"].app_send("hello")
    view = world.view()  # message still on the channel: check mid-flight
    invariant_6_3(view)
    invariant_6_4(view)
    invariant_6_5(view)
    invariant_6_6(view)
    world.pump()
    invariant_6_6(world.view())


def test_6_3_flags_non_monotone_view_stream(world):
    old = make_view(0, ["a", "b"], {"a": 0, "b": 0})
    world.channels[("a", "b")].append(ViewMsg(old))
    with pytest.raises(InvariantViolation, match="6.3"):
        invariant_6_3(world.view())


def test_6_4_flags_wrong_history_view(world):
    world.channels[("a", "b")].append(AppMsg("m", history_view=V2, history_index=1))
    with pytest.raises(InvariantViolation, match="6.4"):
        invariant_6_4(world.view())


def test_6_5_flags_wrong_history_index(world):
    world.channels[("a", "b")].append(AppMsg("m", history_view=V1, history_index=5))
    with pytest.raises(InvariantViolation, match="6.5"):
        invariant_6_5(world.view())


def test_6_6_flags_in_transit_message_not_on_sender_queue(world):
    world.channels[("a", "b")].append(AppMsg("ghost", history_view=V1, history_index=1))
    with pytest.raises(InvariantViolation, match="6.6"):
        invariant_6_6(world.view())


def test_6_6_flags_forged_forwarded_message(world):
    world.channels[("a", "b")].append(FwdMsg("b", V1, 1, "never existed"))
    with pytest.raises(InvariantViolation, match="6.6"):
        invariant_6_6(world.view())


def test_6_6_flags_diverged_receiver_copy(world):
    world.runners["b"].app_send("original")
    world.pump()
    a = world.endpoints["a"]
    buffers = a.msgs["b"]
    log = buffers[a.current_view]
    log._items[0] = "tampered"  # corrupt the stored copy directly
    with pytest.raises(InvariantViolation, match="6.6"):
        invariant_6_6(world.view())
