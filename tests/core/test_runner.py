"""Unit tests for the reactive endpoint runner."""

import pytest

from repro._collections import frozendict
from repro.checking.events import BlockEvent, DeliverEvent, SendEvent, ViewEvent
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import SyncMsg, ViewMsg, AppMsg
from repro.core.runner import EndpointRunner
from repro.errors import ActionNotEnabled, ClientMisuseError
from repro.ioa import Action, ActionKind
from repro.spec.client import BlockStatus
from repro.types import initial_view, make_view

V1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})


class Recorder:
    def __init__(self):
        self.wire = []
        self.reliable = []
        self.delivered = []
        self.views = []

    def make_runner(self, pid="a", **kwargs):
        endpoint = GcsEndpoint(pid)
        runner = EndpointRunner(
            endpoint,
            send_wire=lambda targets, m: self.wire.append((targets, m)),
            set_reliable=self.reliable.append,
            **kwargs,
        )
        runner.set_app(
            on_deliver=lambda sender, payload: self.delivered.append((sender, payload)),
            on_view=lambda view, T: self.views.append((view, T)),
        )
        return runner


@pytest.fixture
def rec():
    return Recorder()


def complete_change(runner):
    runner.membership_start_change(1, {"a", "b"})
    runner.receive("b", SyncMsg(1, initial_view("b"), frozendict({"b": 0})))
    runner.membership_view(V1)


def test_full_view_change_via_runner(rec):
    runner = rec.make_runner()
    complete_change(runner)
    assert runner.current_view == V1
    assert rec.views == [(V1, frozenset({"a"}))]
    assert frozenset({"a", "b"}) in rec.reliable


def test_auto_block_ok_answers_block(rec):
    runner = rec.make_runner()
    complete_change(runner)
    kinds = [type(e).__name__ for e in runner.trace]
    assert "BlockEvent" in kinds and "BlockOkEvent" in kinds


def test_app_send_multicasts_and_self_delivers(rec):
    runner = rec.make_runner()
    complete_change(runner)
    runner.app_send("hello")
    payloads = [m.payload for _t, m in rec.wire if isinstance(m, AppMsg)]
    assert payloads == ["hello"]
    assert ("a", "hello") in rec.delivered


def test_send_while_blocked_raises(rec):
    runner = rec.make_runner(auto_block_ok=False)
    runner.membership_start_change(1, {"a", "b"})
    runner.block_ok()
    assert runner.blocked
    with pytest.raises(ClientMisuseError):
        runner.app_send("nope")


def test_manual_block_callback(rec):
    blocked = []
    endpoint = GcsEndpoint("a")
    runner = EndpointRunner(
        endpoint,
        send_wire=lambda *_: None,
        set_reliable=lambda *_: None,
        on_block=lambda: blocked.append(True),
        auto_block_ok=False,
    )
    runner.membership_start_change(1, {"a", "b"})
    assert blocked == [True]
    assert not runner.blocked  # nobody acknowledged yet


def test_receive_routes_messages(rec):
    runner = rec.make_runner()
    complete_change(runner)
    runner.receive("b", ViewMsg(V1))
    runner.receive("b", AppMsg("from-b"))
    assert ("b", "from-b") in rec.delivered


def test_trace_records_events_in_order(rec):
    runner = rec.make_runner()
    complete_change(runner)
    runner.app_send("x")
    kinds = [type(e) for e in runner.trace]
    assert kinds.index(ViewEvent) < kinds.index(SendEvent)
    assert DeliverEvent in kinds


def test_clock_stamps_events(rec):
    times = iter(range(100))
    endpoint = GcsEndpoint("a")
    runner = EndpointRunner(
        endpoint,
        send_wire=lambda *_: None,
        set_reliable=lambda *_: None,
        clock=lambda: float(next(times)),
    )
    runner.membership_start_change(1, {"a"})
    stamps = [e.time for e in runner.trace]
    assert stamps == sorted(stamps)


def test_drain_reentrancy_guard(rec):
    runner = rec.make_runner()
    # calling drain inside a callback must not recurse
    runner._draining = True
    assert runner.drain() == 0
    runner._draining = False


def test_endpoint_class_without_ordering_is_rejected():
    """The drain order is the class's declared barrier, never a silent
    default: a class that declares none cannot be driven."""

    class Unordered(GcsEndpoint):
        ORDERING = ()

    with pytest.raises(ValueError, match="declares no ORDERING"):
        EndpointRunner(
            Unordered("a"), send_wire=lambda *_: None, set_reliable=lambda *_: None
        )



# ---------------------------------------------------------------------------
# one precondition check per drained action
# ---------------------------------------------------------------------------


def test_apply_enabled_checks_again_only_under_strict():
    block = Action("block", ("a",))  # disabled: no start_change
    with pytest.raises(ActionNotEnabled):
        GcsEndpoint("a", strict=True).apply_enabled(block)
    endpoint = GcsEndpoint("a", strict=True)
    endpoint.apply(Action("mbrshp.start_change", ("a", 1, frozenset("ab"))))
    version = endpoint.state_version
    endpoint.apply_enabled(block)
    assert endpoint.block_status is BlockStatus.REQUESTED
    assert endpoint.state_version == version + 1


def test_drain_checks_each_drained_precondition_once():
    checks = []

    class Counting(GcsEndpoint):  # a subclass: the fast lane stays off
        def _pre_deliver(self, p, q, m):
            checks.append(q)
            return True

    runner = EndpointRunner(Counting("a"), send_wire=lambda *_: None, set_reliable=lambda *_: None)
    runner.app_send("m")
    assert [type(e).__name__ for e in runner.trace] == ["SendEvent", "DeliverEvent"]
    # Once in the batch that sends (found not yet enabled), once in the
    # batch that delivers - not again before and inside apply.
    assert checks == ["a", "a"]


def test_drain_still_skips_a_later_action_the_first_disabled():
    """Routing ``block`` answers it with ``block_ok`` at once, which
    disables ``note`` in the same batch: the drain must re-check it."""

    class Noting(GcsEndpoint):
        SIGNATURE = {"note": ActionKind.OUTPUT}
        ORDERING = ("co_rfifo.reliable", "block", "note", "co_rfifo.send", "deliver", "view")

        def _state(self):
            self.notes = 0

        def _pre_note(self, p):
            return self.start_change is not None and self.block_status is not BlockStatus.BLOCKED

        def _eff_note(self, p):
            self.notes += 1

        def _candidates_note(self):
            if self.start_change is not None:
                yield (self.pid,)

    endpoint = Noting("a")
    runner = EndpointRunner(endpoint, send_wire=lambda *_: None, set_reliable=lambda *_: None)
    endpoint.apply(Action("mbrshp.start_change", ("a", 1, frozenset("ab"))))
    batch = sorted(endpoint.enabled_actions(), key=runner._priority_key)
    assert [action.name for action in batch] == ["co_rfifo.reliable", "block", "note"]
    runner.drain()
    assert endpoint.block_status is BlockStatus.BLOCKED
    assert endpoint.notes == 0
