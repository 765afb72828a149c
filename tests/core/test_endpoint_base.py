"""Unit tests for the per-process automaton base (subscripting, crash)."""

import pytest

from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import ViewMsg
from repro.ioa import Action
from repro.types import make_view

V1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})


@pytest.fixture
def ep():
    return GcsEndpoint("a")


class TestSubscripting:
    def test_first_param_convention(self, ep):
        assert ep.subscript_of(Action("send", ("a", "m"))) == "a"
        assert ep.subscript_of(Action("mbrshp.view", ("b", V1))) == "b"

    def test_deliver_uses_receiver_second(self, ep):
        action = Action("co_rfifo.deliver", ("b", "a", ViewMsg(V1)))
        assert ep.subscript_of(action) == "a"

    def test_accepts_only_own_subscript(self, ep):
        assert ep.accepts(Action("send", ("a", "m")))
        assert not ep.accepts(Action("send", ("b", "m")))
        assert ep.accepts(Action("co_rfifo.deliver", ("b", "a", ViewMsg(V1))))
        assert not ep.accepts(Action("co_rfifo.deliver", ("a", "b", ViewMsg(V1))))

    def test_accepts_rejects_outputs(self, ep):
        assert not ep.accepts(Action("view", ("a", V1, frozenset())))

    def test_empty_params_have_no_subscript(self, ep):
        assert ep.subscript_of(Action("noop", ())) is None


class TestCrashDiscipline:
    def test_locally_controlled_while_crashed_is_a_bug(self, ep):
        ep.apply(Action("send", ("a", "m")))
        pending = ep.enabled_actions()[0]
        ep.apply(Action("crash", ("a",)))
        with pytest.raises(RuntimeError):
            ep.apply(pending)

    def test_double_crash_is_idempotent(self, ep):
        ep.apply(Action("crash", ("a",)))
        ep.apply(Action("crash", ("a",)))
        assert ep.crashed

    def test_name_defaults_to_class_and_pid(self, ep):
        assert ep.name == "GcsEndpoint:a"
